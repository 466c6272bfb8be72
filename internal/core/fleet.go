package core

import (
	"sync"
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/resilience"
	"iotsec/internal/telemetry"
)

// FleetSelfReport makes a single-gateway deployment a first-class
// shard of the fleet telemetry plane: the platform periodically reports
// its own device counts (total and per SKU), posture-apply volume,
// and detect→enforce latency into the global controller's fleet
// aggregator — the same report a sharded hierarchy's local
// controllers send, so one gateway and a 10⁵-device fleet render
// through the same /debug/fleet view.
type FleetSelfReport struct {
	p        *Platform
	source   string
	agg      *controller.FleetAggregator
	e2e      *telemetry.Histogram
	profiles *ProfilePlane // nil unless enabled before the report started

	mu  sync.Mutex // orders Seq with the snapshot it numbers
	seq uint64

	loop resilience.Loop
}

// StartFleetSelfReport begins pushing this platform's reports into
// its own fleet aggregator under the given source name every interval
// (default 1s). e2e, when non-nil, supplies the detect→enforce
// histogram (the SLO tracker's end-to-end distribution); otherwise
// the Fig. 2 commit→enforcement histogram is used. With the profile
// plane enabled first, its live violations are reported too, in total
// and by device; with forensics enabled, the aggregator reads the
// capturer live as this source's incident feed. Stop flushes one
// final report.
func (p *Platform) StartFleetSelfReport(source string, interval time.Duration, e2e *telemetry.Histogram) *FleetSelfReport {
	if source == "" {
		source = "gateway"
	}
	if interval <= 0 {
		interval = time.Second
	}
	if e2e == nil {
		e2e = mEnforceSeconds
	}
	r := &FleetSelfReport{p: p, source: source, agg: p.Global.Fleet(), e2e: e2e}
	r.profiles, _ = p.Profiles()
	if cap := p.Forensics(); cap != nil {
		r.agg.AttachIncidentSource(source, cap)
	}
	r.loop.Start(resilience.System, interval, nil, func(bool) { r.flush() })
	return r
}

// flush pushes one cumulative report. Posture applies stand in for
// handled events: on a single gateway every committed change ends in
// (at most) one apply.
func (r *FleetSelfReport) flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	rep := controller.ShardReport{
		Source:     r.source,
		Seq:        r.seq,
		TakenAt:    time.Now(),
		Events:     mPostureApplies.Value(),
		MTTR:       r.e2e.Rollup(),
		Devices:    r.p.DeviceCount(),
		SKUDevices: r.p.DevicesBySKU(),
	}
	if pl := r.profiles; pl != nil {
		rep.Violations = pl.violations.Value()
		rep.TopViolators = pl.topViolators.Snapshot()
	}
	_ = r.agg.Report(rep)
}

// Stop halts the reporter, then flushes one final report (a repeated
// Stop pushes the same totals again under a new Seq).
func (r *FleetSelfReport) Stop() {
	r.loop.Stop()
	r.flush()
}

// DeviceCount reports how many devices are under management.
func (p *Platform) DeviceCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.devices)
}

// DevicesBySKU counts managed devices per SKU.
func (p *Platform) DevicesBySKU() map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int)
	for _, m := range p.devices {
		out[m.Device.Profile.SKU]++
	}
	return out
}
