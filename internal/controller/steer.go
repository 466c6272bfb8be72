package controller

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/openflow"
	"iotsec/internal/packet"
	"iotsec/internal/telemetry"
)

// barrierTimeout bounds how long Steering waits for a switch to confirm
// that the FLOW_MODs sent before a barrier were applied.
const barrierTimeout = 2 * time.Second

// Steering is the southbound application that enforces posture on the
// switches: it holds the standing quarantines and rule sets, sends
// them to every connected switch (over the real southbound protocol),
// and re-sends them whenever a switch connects or reconnects.
//
// Quarantines (Isolate/Release) are priority-400 drop rules keyed by
// the device MAC, emitted with the trace ID of the causal chain that
// requested them, so forensic timelines show which anomaly produced
// which FLOW_MOD.
//
// Who owns which entries on a switch is told by the cookie's top byte
// (openflow.ClassCookie), and each owner deletes by its own cookies
// only:
//
//	0x51 'Q'   quarantine drops, prio 400 (Isolate/Release)
//	0x50 'P'   behavior-profile rule sets, prio 250–310 (profile.Compile,
//	           installed through InstallRuleSet)
//	0x54 'T'   tunnel pins, prio 100 (netsim.PinCookieTag): written by
//	           the switch itself when a host attaches, never sent or
//	           deleted by Steering
type Steering struct {
	mu       sync.Mutex
	endpoint *openflow.ControllerEndpoint
	switches map[uint64]struct{} // connected dpids
	// isolated holds the quarantine set (device name → MAC). It is the
	// source of truth for which drop rules must exist on every switch:
	// a switch that connects (or reconnects) mid-quarantine receives
	// them immediately, so an agent reconnect can never silently lift a
	// quarantine.
	isolated map[string]packet.MACAddress
	// ruleSets holds named standing rule sets (e.g. one compiled
	// behavior profile per enforced device). Like quarantines they are
	// persisted controller state: program() re-emits every set on every
	// switch (re)connect, so enforcement survives agent restarts.
	ruleSets map[string][]*openflow.FlowMod
	// connectWaiters are closed (and cleared) when a switch completes
	// the handshake, so WaitForSwitch blocks without polling.
	connectWaiters []chan struct{}
	logger         *log.Logger
}

// NewSteering builds the application and its southbound endpoint.
// Call Listen, then point switch agents at the address.
func NewSteering(logger *log.Logger) *Steering {
	if logger == nil {
		logger = log.New(discardWriter{}, "", 0)
	}
	s := &Steering{
		switches: make(map[uint64]struct{}),
		isolated: make(map[string]packet.MACAddress),
		ruleSets: make(map[string][]*openflow.FlowMod),
		logger:   logger,
	}
	s.endpoint = openflow.NewControllerEndpoint(s, logger)
	return s
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// Listen starts the southbound listener, returning the bound address.
// After Interrupt it may be called again to resume accepting.
func (s *Steering) Listen(addr string) (string, error) {
	return s.endpoint.Listen(addr)
}

// SetHeartbeat tunes the southbound liveness probe (an ECHO every
// interval, reap after misses unanswered beats; interval <= 0
// disables). Call before Listen.
func (s *Steering) SetHeartbeat(interval time.Duration, misses int) {
	s.endpoint.SetHeartbeat(interval, misses)
}

// Interrupt models a controller crash: every southbound session and
// the listener drop, but the steering state (standing quarantines and
// rule sets) survives, so switches reconnecting after a later Listen
// are re-programmed through the normal SwitchConnected path.
func (s *Steering) Interrupt() { s.endpoint.Interrupt() }

// Close tears down the southbound endpoint.
func (s *Steering) Close() error { return s.endpoint.Close() }

// SwitchConnected implements openflow.SwitchHandler. Programming is
// asynchronous: this callback runs on the switch's receive goroutine,
// which must stay free to deliver the barrier replies program waits
// for.
func (s *Steering) SwitchConnected(dpid uint64, _ []uint16) {
	s.mu.Lock()
	s.switches[dpid] = struct{}{}
	waiters := s.connectWaiters
	s.connectWaiters = nil
	s.mu.Unlock()
	for _, ch := range waiters {
		close(ch)
	}
	go s.program(context.Background(), dpid)
}

// WaitForSwitch blocks until at least one switch has completed the
// southbound handshake (or the timeout expires), without polling —
// polling loops contend with the handshake itself for CPU on small
// hosts. Returns true when a switch is connected.
func (s *Steering) WaitForSwitch(timeout time.Duration) bool {
	s.mu.Lock()
	if len(s.switches) > 0 {
		s.mu.Unlock()
		return true
	}
	ch := make(chan struct{})
	s.connectWaiters = append(s.connectWaiters, ch)
	s.mu.Unlock()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return false
	}
}

// SwitchDisconnected implements openflow.SwitchHandler.
func (s *Steering) SwitchDisconnected(dpid uint64) {
	s.mu.Lock()
	delete(s.switches, dpid)
	s.mu.Unlock()
}

// HandlePacketIn implements openflow.SwitchHandler: with proactive
// rules installed nothing should punt; log for diagnosis.
func (s *Steering) HandlePacketIn(pi *openflow.PacketIn) {
	s.logger.Printf("steering: unexpected packet-in from dpid %d port %d (%d bytes)",
		pi.DatapathID, pi.InPort, len(pi.Data))
}

// HandleFlowRemoved implements openflow.SwitchHandler.
func (s *Steering) HandleFlowRemoved(fr *openflow.FlowRemoved) {}

// send stamps a FLOW_MOD with the context's trace ID, journals it,
// and pushes it to one switch.
func (s *Steering) send(ctx context.Context, dpid uint64, fm *openflow.FlowMod, what string) {
	fm.TraceID = telemetry.TraceID(ctx)
	mFlowMods.Inc()
	journal.Record(ctx, journal.TypeFlowMod, journal.Info, what,
		fmt.Sprintf("%s prio %d cookie %#x to dpid %d", fm.Command, fm.Priority, fm.Cookie, dpid))
	if err := s.endpoint.SendFlowMod(dpid, fm); err != nil {
		s.logger.Printf("steering: flow-mod to %d: %v", dpid, err)
	}
}

// program re-emits the standing rule sets and quarantines to one
// switch, fencing with a barrier so enforcement is in place before
// program returns. Insert replaces identical match+priority entries,
// so re-sending what a switch already holds is idempotent; with
// nothing standing it is a no-op.
func (s *Steering) program(ctx context.Context, dpid uint64) {
	s.mu.Lock()
	_, connected := s.switches[dpid]
	quarantined := make(map[string]packet.MACAddress, len(s.isolated))
	for name, mac := range s.isolated {
		quarantined[name] = mac
	}
	ruleSets := make(map[string][]*openflow.FlowMod, len(s.ruleSets))
	for name, mods := range s.ruleSets {
		ruleSets[name] = mods
	}
	s.mu.Unlock()
	if !connected || (len(quarantined) == 0 && len(ruleSets) == 0) {
		return
	}
	ctx, span := telemetry.StartSpan(ctx, "controller.steer.program")
	defer span.End()

	for name, mods := range ruleSets {
		s.sendRuleSet(ctx, dpid, name, mods)
	}
	for name, mac := range quarantined {
		s.sendQuarantine(ctx, dpid, name, mac)
	}

	if err := s.endpoint.Barrier(dpid, barrierTimeout); err != nil {
		s.logger.Printf("steering: barrier to %d: %v", dpid, err)
	}
}

// quarantineCookie derives a stable per-device cookie from its MAC so
// Release can delete exactly the rules Isolate installed. The high
// byte tags the rule class, so no other owner's cookies collide.
func quarantineCookie(mac packet.MACAddress) uint64 {
	return openflow.ClassCookie(0x51, mac) // 'Q'
}

// sendQuarantine emits the two priority-400 drop rules (eth_src and
// eth_dst on the device MAC, empty action list = drop) to one switch.
func (s *Steering) sendQuarantine(ctx context.Context, dpid uint64, name string, mac packet.MACAddress) {
	cookie := quarantineCookie(mac)
	s.send(ctx, dpid, &openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Match:    openflow.MatchAll().WithEthSrc(mac),
		Priority: 400,
		Cookie:   cookie,
	}, name)
	s.send(ctx, dpid, &openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Match:    openflow.MatchAll().WithEthDst(mac),
		Priority: 400,
		Cookie:   cookie,
	}, name)
}

// Isolate puts one device MAC under quarantine: priority-400 drop
// rules on every connected switch, fenced by a barrier. The quarantine
// persists in the steering state, so switches that connect (or
// reconnect) later re-receive the rules until Release. The
// rules carry the context's trace ID, so the forensic journal links
// them to the anomaly that triggered the posture change.
func (s *Steering) Isolate(ctx context.Context, name string, mac packet.MACAddress) {
	ctx, span := telemetry.StartSpan(ctx, "controller.steer.isolate")
	defer span.End()
	s.mu.Lock()
	s.isolated[name] = mac
	s.mu.Unlock()
	for _, dpid := range s.dpids() {
		s.sendQuarantine(ctx, dpid, name, mac)
		if err := s.endpoint.Barrier(dpid, barrierTimeout); err != nil {
			s.logger.Printf("steering: isolate barrier to %d: %v", dpid, err)
		}
	}
}

// Release lifts the quarantine: the device leaves the persisted set
// and the rules Isolate installed are removed from every connected
// switch (delete-by-cookie), barrier-fenced.
func (s *Steering) Release(ctx context.Context, name string, mac packet.MACAddress) {
	ctx, span := telemetry.StartSpan(ctx, "controller.steer.release")
	defer span.End()
	s.mu.Lock()
	delete(s.isolated, name)
	s.mu.Unlock()
	cookie := quarantineCookie(mac)
	for _, dpid := range s.dpids() {
		s.send(ctx, dpid, &openflow.FlowMod{
			Command: openflow.FlowDeleteByCookie,
			Match:   openflow.MatchAll(),
			Cookie:  cookie,
		}, name)
		if err := s.endpoint.Barrier(dpid, barrierTimeout); err != nil {
			s.logger.Printf("steering: release barrier to %d: %v", dpid, err)
		}
	}
}

// sendRuleSet emits one named rule set to one switch. Each FLOW_MOD
// is sent as a copy so the persisted set is never mutated (send
// stamps the trace ID on the message it pushes).
func (s *Steering) sendRuleSet(ctx context.Context, dpid uint64, name string, mods []*openflow.FlowMod) {
	for _, fm := range mods {
		cp := *fm
		s.send(ctx, dpid, &cp, name)
	}
}

// ruleSetCookies collects the distinct cookies a rule set uses.
func ruleSetCookies(mods []*openflow.FlowMod) []uint64 {
	seen := make(map[uint64]bool)
	var out []uint64
	for _, fm := range mods {
		if !seen[fm.Cookie] {
			seen[fm.Cookie] = true
			out = append(out, fm.Cookie)
		}
	}
	return out
}

// InstallRuleSet installs (or replaces) a named standing rule set on
// every connected switch, barrier-fenced, and persists it so later
// switch connects re-receive it — the same durability contract as
// quarantines. Replacement deletes the prior set's cookies first, so
// stale rules cannot linger when a set shrinks. Rule cookies should be
// stable per set (see profile.Cookie) and must not collide with
// quarantine ('Q') or pin ('T') cookies.
func (s *Steering) InstallRuleSet(ctx context.Context, name string, mods []*openflow.FlowMod) {
	ctx, span := telemetry.StartSpan(ctx, "controller.steer.install_rule_set")
	defer span.End()
	kept := make([]*openflow.FlowMod, len(mods))
	for i, fm := range mods {
		cp := *fm
		kept[i] = &cp
	}
	s.mu.Lock()
	prior := s.ruleSets[name]
	s.ruleSets[name] = kept
	s.mu.Unlock()
	stale := ruleSetCookies(prior)
	for _, dpid := range s.dpids() {
		for _, cookie := range stale {
			s.send(ctx, dpid, &openflow.FlowMod{
				Command: openflow.FlowDeleteByCookie,
				Match:   openflow.MatchAll(),
				Cookie:  cookie,
			}, name)
		}
		s.sendRuleSet(ctx, dpid, name, kept)
		if err := s.endpoint.Barrier(dpid, barrierTimeout); err != nil {
			s.logger.Printf("steering: rule-set barrier to %d: %v", dpid, err)
		}
	}
}

// Isolated reports whether the named device is currently quarantined.
func (s *Steering) Isolated(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.isolated[name]
	return ok
}

// IsolatedDevices snapshots the full quarantine set (device → MAC).
// Because program() re-emits these rules on every switch (re)connect,
// this set mirrors exactly the drop rules resident
// in connected switches' flow tables — it is the controller-side
// flow-table readback the failover recovery path rebuilds quarantine
// state from.
func (s *Steering) IsolatedDevices() map[string]packet.MACAddress {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]packet.MACAddress, len(s.isolated))
	for name, mac := range s.isolated {
		out[name] = mac
	}
	return out
}

// dpids snapshots the connected switch IDs.
func (s *Steering) dpids() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.switches))
	for dpid := range s.switches {
		out = append(out, dpid)
	}
	return out
}

// String summarizes the steering state.
func (s *Steering) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("steering: %d switches, %d quarantined",
		len(s.switches), len(s.isolated))
}

// Switches reports how many southbound switch sessions are currently
// connected — the health plane's "can a quarantine FLOW_MOD reach the
// network at all" signal.
func (s *Steering) Switches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.switches)
}

// Quarantined reports how many devices are currently isolated.
func (s *Steering) Quarantined() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.isolated)
}
