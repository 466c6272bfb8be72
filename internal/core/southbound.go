package core

import (
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/netsim"
	"iotsec/internal/openflow"
)

// SouthboundOptions configure AttachSouthbound.
type SouthboundOptions struct {
	// Addr is the listen address for the southbound endpoint (default
	// "127.0.0.1:0" — an ephemeral local port).
	Addr string
	// HeartbeatInterval is the controller→switch ECHO probe period
	// (default openflow.DefaultHeartbeatInterval; < 0 disables).
	HeartbeatInterval time.Duration
	// Agent tunes the switch-side supervised channel (backoff
	// schedule, degradation buffer).
	Agent netsim.AgentOptions
}

// Southbound bundles the live southbound channel AttachSouthbound
// assembled: the steering application (controller side) and the
// supervised switch agent riding the wire.
type Southbound struct {
	Steering *controller.Steering
	Agent    *netsim.SwitchAgent
	// Addr is the bound controller address agents dial.
	Addr string
}

// Close tears the channel down: agent first (so its disconnect is a
// deliberate stop, not an outage), then the endpoint.
func (s *Southbound) Close() {
	if s.Agent != nil {
		s.Agent.Stop()
		s.Agent.Wait()
	}
	if s.Steering != nil {
		_ = s.Steering.Close()
	}
}

// AttachSouthbound stands up the real southbound control channel for
// the platform's uplink switch: a Steering application listening on
// opts.Addr, heartbeat-probed sessions, and a supervised SwitchAgent
// that reconnects with jittered backoff and, during outages, serves
// its installed table and buffers events. The steering app is attached via
// UseSteering, so posture isolations flow to the wire as quarantine
// FLOW_MODs from then on.
func (p *Platform) AttachSouthbound(opts SouthboundOptions) (*Southbound, error) {
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	s := controller.NewSteering(nil)
	interval := opts.HeartbeatInterval
	if interval == 0 {
		interval = openflow.DefaultHeartbeatInterval
	}
	s.SetHeartbeat(interval, openflow.DefaultHeartbeatMisses)
	addr, err := s.Listen(opts.Addr)
	if err != nil {
		return nil, err
	}
	agent := netsim.SuperviseAgent(p.Switch, addr, opts.Agent)
	p.UseSteering(s)
	return &Southbound{Steering: s, Agent: agent, Addr: addr}, nil
}
