// Control-plane failover wiring: SuperviseControllers attaches the
// §5.1 partition tier to a running platform and puts every local
// controller under deadman supervision, so a crashed local is
// detected, its critical security state is rebuilt from checkpoint +
// forensic-journal replay + switch flow-table readback, and its
// devices are re-homed — quarantines re-pushed first (fail-closed).
package core

import (
	"context"
	"sort"
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/packet"
	"iotsec/internal/resilience"
)

// SupervisionOptions configure SuperviseControllers.
type SupervisionOptions struct {
	// Partitioning overrides the interaction partitioning; when nil one
	// is computed over the currently managed devices from Edges.
	Partitioning *controller.Partitioning
	// Edges weight device interactions for the computed partitioning.
	Edges []controller.InteractionEdge
	// MaxGroupSize caps computed partition sizes (default 8).
	MaxGroupSize int
	// EnvLocality declares which partition privately owns an env
	// variable; unlisted variables stay on the Global-only path.
	EnvLocality map[string]int

	// Heartbeat / Misses / CheckpointEvery / FailMode / Clock tune the
	// supervisor (see controller.SupervisorOptions).
	Heartbeat       time.Duration
	Misses          int
	CheckpointEvery time.Duration
	FailMode        controller.FailMode
	Clock           resilience.Clock

	// Fleet, when set, receives failover state for /debug/fleet.
	Fleet *controller.FleetAggregator
	// OnFailover observes completed failovers (must not block).
	OnFailover func(controller.FailoverRecord)
}

// SuperviseControllers builds the local/global controller hierarchy
// over the platform's policy and devices, routes future device events
// through it, and returns it together with a supervisor wired to the
// platform's enforcement plane:
//
//   - quarantine state for checkpoints comes from managed postures,
//   - flow-table readback comes from the attached steering app,
//   - quarantine re-push goes through steering.Isolate (idempotent),
//   - the installed-profile generation comes from the profile plane.
//
// The supervisor is returned un-started: call Start (or drive Tick
// from a test clock). Calling SuperviseControllers twice returns the
// existing pair.
func (p *Platform) SuperviseControllers(opts SupervisionOptions) (*controller.Hierarchy, *controller.Supervisor) {
	p.mu.Lock()
	if p.hierarchy != nil {
		h, sup := p.hierarchy, p.supervisor
		p.mu.Unlock()
		return h, sup
	}
	part := opts.Partitioning
	if part == nil {
		names := make([]string, 0, len(p.devices))
		for name := range p.devices {
			names = append(names, name)
		}
		sort.Strings(names)
		part = controller.Partition(names, opts.Edges, opts.MaxGroupSize)
	}
	p.mu.Unlock()

	h := controller.NewHierarchyWithGlobal(p.Global, p.fsm, part, opts.EnvLocality, p.applyPartitionPosture)
	sup := h.Supervise(controller.SupervisorOptions{
		Clock:           opts.Clock,
		Heartbeat:       opts.Heartbeat,
		Misses:          opts.Misses,
		CheckpointEvery: opts.CheckpointEvery,
		FailMode:        opts.FailMode,
		Fleet:           opts.Fleet,
		OnFailover:      opts.OnFailover,
		QuarantinedOf:   func(group int) []string { return p.quarantinedIn(part, group) },
		ReadbackQuarantines: func(group int) []string {
			return p.steeringQuarantinesIn(part, group)
		},
		RepushQuarantine: p.repushQuarantine,
		ProfileGen: func() uint64 {
			if pl, ok := p.Profiles(); ok {
				return pl.Generation()
			}
			return 0
		},
	})

	p.mu.Lock()
	p.hierarchy = h
	p.partitioning = part
	p.envLocality = opts.EnvLocality
	p.supervisor = sup
	p.mu.Unlock()
	return h, sup
}

// Supervision returns the attached hierarchy and supervisor (nil, nil
// before SuperviseControllers).
func (p *Platform) Supervision() (*controller.Hierarchy, *controller.Supervisor) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hierarchy, p.supervisor
}

// quarantinedIn lists a partition's devices whose current posture
// isolates them — the control plane's intended quarantine set,
// checkpoint material.
func (p *Platform) quarantinedIn(part *controller.Partitioning, group int) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for name, m := range p.devices {
		if m.CurrentPosture.Isolate && part.GroupOf(name) == group {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// steeringQuarantinesIn reads back the quarantine drops resident in
// the switch flow tables for one partition — the readback leg of
// recovery's quarantine union.
func (p *Platform) steeringQuarantinesIn(part *controller.Partitioning, group int) []string {
	p.mu.Lock()
	st := p.steering
	p.mu.Unlock()
	if st == nil {
		return nil
	}
	var out []string
	for name := range st.IsolatedDevices() {
		if part.GroupOf(name) == group {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// repushQuarantine re-asserts one device's quarantine on the wire.
// Steering.Isolate is idempotent, so re-pushing a rule the switches
// already hold is harmless — recovery calls this for the whole union
// before any state restore.
func (p *Platform) repushQuarantine(ctx context.Context, deviceName string) {
	p.mu.Lock()
	m, ok := p.devices[deviceName]
	st := p.steering
	var mac packet.MACAddress
	if ok {
		mac = m.Device.MAC()
		m.isolated = true
	}
	p.mu.Unlock()
	if !ok || st == nil {
		return
	}
	st.Isolate(ctx, deviceName, mac)
}
