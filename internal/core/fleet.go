package core

import (
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/resilience"
	"iotsec/internal/telemetry"
)

// FleetSelfReport makes a single-gateway deployment a first-class
// shard of the fleet telemetry plane: the platform periodically rolls
// up its own device counts (total and per SKU), posture-apply volume,
// and detect→enforce latency into the global controller's fleet
// aggregator — the same transport a sharded hierarchy's local
// controllers use, so one gateway and a 10⁵-device fleet render
// through the same /debug/fleet view.
type FleetSelfReport struct {
	p       *Platform
	source  string
	agg     *controller.FleetAggregator
	builder *telemetry.RollupBuilder

	loop resilience.Loop
}

// StartFleetSelfReport begins pushing this platform's rollups into
// its own fleet aggregator under the given source name every interval
// (default 1s). e2e, when non-nil, supplies the detect→enforce
// histogram (the SLO tracker's end-to-end distribution); otherwise
// the Fig. 2 commit→enforcement histogram is used. With the profile
// plane enabled first, its live violations are reported too, in total
// and by device. Stop flushes one final rollup.
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
	r := &FleetSelfReport{
		p:      p,
		source: source,
		agg:    p.Global.Fleet(),
		// Posture applies stand in for handled events: on a single
		// gateway every committed change ends in (at most) one apply.
		builder: telemetry.NewRollupBuilder(source).
			AddCounter(controller.RollupEvents, mPostureApplies).
			AddHistogram(controller.RollupMTTR, e2e).
			AddGauge(controller.RollupDevices, func() float64 { return float64(p.DeviceCount()) }).
			AddGauge(controller.RollupHealthy, func() float64 { return 1 }),
	}
	if pl, ok := p.Profiles(); ok {
		r.builder.AddCounter(controller.RollupViolations, &pl.violations).
			AddTopK(controller.RollupTopViolators, pl.topViolators)
	}
	// With forensics enabled, the shard report carries the incident
	// plane too: live pull handle for cross-shard assembly, digests
	// pushed with every flush.
	if cap := p.Forensics(); cap != nil {
		r.agg.AttachIncidentSource(source, cap)
	}
	r.loop.Start(resilience.System, interval, nil, func(bool) { r.flush() })
	return r
}

// flush pushes one rollup, folding in the live per-SKU device counts
// (and the incident digests, with forensics enabled).
func (r *FleetSelfReport) flush() {
	roll := r.builder.Take(time.Now())
	for sku, n := range r.p.DevicesBySKU() {
		if roll.Gauges == nil {
			roll.Gauges = make(map[string]float64)
		}
		roll.Gauges[controller.RollupSKUPrefix+sku] = float64(n)
	}
	_ = r.agg.Report(roll)
	if cap := r.p.Forensics(); cap != nil {
		r.agg.ReportIncidents(r.source, cap.Digests())
	}
}

// Stop halts the reporter, then flushes one final rollup (a repeated
// Stop pushes one more, empty, delta).
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
