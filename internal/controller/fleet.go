package controller

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iotsec/internal/resilience"
	"iotsec/internal/telemetry"
)

// Rollup section names shared by every shard-level producer (local
// controllers, the core platform's self-report) and the fleet
// aggregator. Keeping them constants means a shard and its aggregator
// can never drift on naming.
const (
	// Counters (monotonic deltas).
	RollupEvents      = "events_total"
	RollupEscalations = "escalations_total"
	RollupViolations  = "violations_total"
	// Histograms (bucket deltas).
	RollupMTTR = "mttr_e2e_seconds"
	// TopK summaries (cumulative snapshots).
	RollupTopProducers = "top_producers"
	RollupTopViolators = "top_violators"
	RollupTopMTTR      = "top_mttr_contributors"
	// Gauges (instantaneous).
	RollupDevices = "devices"
	RollupHealthy = "healthy"
	// Per-SKU device gauges use this prefix: "devices_sku:<sku>".
	RollupSKUPrefix = "devices_sku:"
)

// FleetTopKCapacity is the per-dimension cardinality budget: a shard
// never exports more than this many per-device series per dimension,
// and the fleet view never carries more than this many after merging —
// regardless of fleet size.
const FleetTopKCapacity = 16

// ShardStats is the bounded-cardinality telemetry one local
// controller (or any shard-like reporting source) accumulates and
// exports up the hierarchy as rollup deltas. The write paths are a
// counter add plus a TopK offer (one uncontended per-shard mutex);
// per-device dimensions are capped at FleetTopKCapacity keys via
// space-saving summaries, so shard telemetry stays O(1) in device
// count.
type ShardStats struct {
	source string

	events      telemetry.Counter
	escalations telemetry.Counter
	violations  telemetry.Counter
	e2e         *telemetry.Histogram

	topProducers *telemetry.TopK
	topViolators *telemetry.TopK
	topMTTR      *telemetry.TopK

	devices atomic.Int64

	skuMu      sync.Mutex
	skuDevices map[string]float64

	builder *telemetry.RollupBuilder
}

// NewShardStats builds stats for one reporting source. bounds are the
// MTTR histogram bounds (nil = telemetry.LatencyBuckets); every shard
// reporting to one aggregator must use the same bounds or its
// histogram merges will be rejected.
func NewShardStats(source string, bounds []float64) *ShardStats {
	s := &ShardStats{
		source:       source,
		e2e:          telemetry.NewStandaloneHistogram(bounds),
		topProducers: telemetry.NewStandaloneTopK(FleetTopKCapacity),
		topViolators: telemetry.NewStandaloneTopK(FleetTopKCapacity),
		topMTTR:      telemetry.NewStandaloneTopK(FleetTopKCapacity),
		skuDevices:   make(map[string]float64),
	}
	s.builder = telemetry.NewRollupBuilder(source).
		AddCounter(RollupEvents, &s.events).
		AddCounter(RollupEscalations, &s.escalations).
		AddCounter(RollupViolations, &s.violations).
		AddHistogram(RollupMTTR, s.e2e).
		AddTopK(RollupTopProducers, s.topProducers).
		AddTopK(RollupTopViolators, s.topViolators).
		AddTopK(RollupTopMTTR, s.topMTTR).
		AddGauge(RollupDevices, func() float64 { return float64(s.devices.Load()) }).
		AddGauge(RollupHealthy, func() float64 { return 1 })
	return s
}

// Source reports the shard name.
func (s *ShardStats) Source() string { return s.source }

// RecordEvent counts one handled event from a device (hot path: one
// atomic add + one per-shard TopK offer).
func (s *ShardStats) RecordEvent(device string) {
	s.events.Inc()
	s.topProducers.Inc(device)
}

// RecordEscalation counts an event that escalated to the global
// controller.
func (s *ShardStats) RecordEscalation() { s.escalations.Inc() }

// RecordViolation counts a policy/profile violation attributed to a
// device.
func (s *ShardStats) RecordViolation(device string) {
	s.violations.Inc()
	s.topViolators.Inc(device)
}

// ObserveE2E records one detect→enforce latency and credits the
// device as an MTTR contributor (weight = microseconds, so slow
// devices float to the top regardless of event volume).
func (s *ShardStats) ObserveE2E(device string, seconds float64) {
	s.e2e.Observe(seconds)
	if us := uint64(seconds * 1e6); us > 0 {
		s.topMTTR.Offer(device, us)
	}
}

// E2E exposes the live MTTR histogram (for direct-vs-merged
// validation and local quantile checks).
func (s *ShardStats) E2E() *telemetry.Histogram { return s.e2e }

// SetDevices records the shard's device count.
func (s *ShardStats) SetDevices(n int) { s.devices.Store(int64(n)) }

// SetSKUDevices records the shard's per-SKU device counts (replaces
// the previous map).
func (s *ShardStats) SetSKUDevices(counts map[string]int) {
	s.skuMu.Lock()
	s.skuDevices = make(map[string]float64, len(counts))
	for sku, n := range counts {
		s.skuDevices[sku] = float64(n)
	}
	s.skuMu.Unlock()
}

// Rollup exports the delta since the previous Rollup (single-consumer;
// the rollup plane's pusher goroutine is that consumer).
func (s *ShardStats) Rollup(now time.Time) telemetry.Rollup {
	r := s.builder.Take(now)
	s.skuMu.Lock()
	for sku, n := range s.skuDevices {
		if r.Gauges == nil {
			r.Gauges = make(map[string]float64, len(s.skuDevices))
		}
		r.Gauges[RollupSKUPrefix+sku] = n
	}
	s.skuMu.Unlock()
	return r
}

// --- fleet aggregation ---

// shardAgg is the aggregator's per-source state.
type shardAgg struct {
	lastSeq    uint64
	lastSeen   time.Time
	lastWindow float64
	lastEvents uint64 // events delta in the last applied rollup

	// Failover surfacing: set by the supervisor when the shard's local
	// controller died and its partition was re-homed. Explicit state —
	// a failed-over shard is more than STALE.
	failedOver  bool
	rehomedTo   string
	recoveredAt time.Time

	counters map[string]uint64
	gauges   map[string]float64
	hists    map[string]telemetry.HistogramRollup
	topk     map[string]telemetry.TopKRollup
}

// FleetAggregator merges shard rollups into the fleet view (§5.1's
// global controller role for telemetry): cumulative counters and
// histograms per shard, mergeable across shards at read time, with
// staleness tracking — a shard that stops reporting is *surfaced* as
// stale (and excluded from instantaneous rates) rather than silently
// dropped from cumulative aggregates.
type FleetAggregator struct {
	staleAfter time.Duration
	now        func() time.Time

	mu     sync.Mutex
	shards map[string]*shardAgg

	// Incident plane (fleet_incidents.go), attached on first use.
	incOnce sync.Once
	inc     *fleetIncidents

	reports     atomic.Uint64
	dupReports  atomic.Uint64
	mergeErrors atomic.Uint64
}

// DefaultStaleAfter marks a shard stale when it hasn't reported for
// this long (rollup planes default to pushing every 1s–5s).
const DefaultStaleAfter = 15 * time.Second

// NewFleetAggregator builds an empty aggregator. staleAfter <= 0 uses
// DefaultStaleAfter.
func NewFleetAggregator(staleAfter time.Duration) *FleetAggregator {
	if staleAfter <= 0 {
		staleAfter = DefaultStaleAfter
	}
	return &FleetAggregator{
		staleAfter: staleAfter,
		now:        time.Now,
		shards:     make(map[string]*shardAgg),
	}
}

// SetClock overrides the staleness clock (tests).
func (f *FleetAggregator) SetClock(now func() time.Time) { f.now = now }

// newShardAgg builds an empty shard row.
func newShardAgg() *shardAgg {
	return &shardAgg{
		counters: make(map[string]uint64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]telemetry.HistogramRollup),
		topk:     make(map[string]telemetry.TopKRollup),
	}
}

// shardLocked returns source's row, creating it on first sight.
// Caller holds f.mu.
func (f *FleetAggregator) shardLocked(source string) *shardAgg {
	sh := f.shards[source]
	if sh == nil {
		sh = newShardAgg()
		f.shards[source] = sh
	}
	return sh
}

// Report merges one shard rollup. Rollups must arrive per-source in
// sequence order; a rollup whose Seq is not greater than the last
// applied one from the same source is dropped (idempotent re-push). A
// histogram bounds mismatch errors and skips that histogram without
// corrupting the merged state.
func (f *FleetAggregator) Report(r telemetry.Rollup) error {
	if r.Source == "" {
		return fmt.Errorf("controller: fleet rollup without a source")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	sh := f.shardLocked(r.Source)
	if r.Seq <= sh.lastSeq {
		f.dupReports.Add(1)
		return nil
	}
	f.reports.Add(1)
	sh.lastSeq = r.Seq
	sh.lastSeen = f.now()
	sh.lastWindow = r.WindowSeconds
	sh.lastEvents = r.Counters[RollupEvents]

	for name, d := range r.Counters {
		sh.counters[name] += d
	}
	for name, v := range r.Gauges {
		sh.gauges[name] = v
	}
	for name, t := range r.TopK {
		sh.topk[name] = t
	}
	var firstErr error
	for name, hr := range r.Histograms {
		cur := sh.hists[name]
		if err := cur.Merge(hr); err != nil {
			f.mergeErrors.Add(1)
			if firstErr == nil {
				firstErr = fmt.Errorf("controller: fleet rollup from %s: %s: %w", r.Source, name, err)
			}
			continue
		}
		sh.hists[name] = cur
	}
	return firstErr
}

// SetShardFailover marks a shard as failed over and re-homed: the
// supervisor calls it at recovery-complete so /debug/fleet and mboxctl
// fleet show FAILED-OVER / RE-HOMED-TO state explicitly instead of
// letting the shard quietly go STALE. Creates the shard row if it never
// reported (a controller can die before its first rollup); lastSeen is
// deliberately NOT touched — staleness keeps tracking real reporting.
func (f *FleetAggregator) SetShardFailover(source, rehomedTo string, at time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sh := f.shardLocked(source)
	sh.failedOver = true
	sh.rehomedTo = rehomedTo
	sh.recoveredAt = at
}

// QuantilesJSON summarizes one latency distribution.
type QuantilesJSON struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_seconds"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
}

func quantilesOf(h telemetry.HistogramRollup) QuantilesJSON {
	return QuantilesJSON{
		Count: h.Count,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// ShardSummary is one shard's row in the fleet view.
type ShardSummary struct {
	Source       string             `json:"source"`
	LastSeq      uint64             `json:"last_seq"`
	AgeSeconds   float64            `json:"age_seconds"`
	Stale        bool               `json:"stale"`
	Healthy      bool               `json:"healthy"`
	FailedOver   bool               `json:"failed_over,omitempty"`
	RehomedTo    string             `json:"rehomed_to,omitempty"`
	RecoveredAt  *time.Time         `json:"recovered_at,omitempty"`
	Devices      float64            `json:"devices"`
	SKUDevices   map[string]float64 `json:"sku_devices,omitempty"`
	Events       uint64             `json:"events_total"`
	Escalations  uint64             `json:"escalations_total"`
	Violations   uint64             `json:"violations_total"`
	EventsPerSec float64            `json:"events_per_sec"`
	MTTR         QuantilesJSON      `json:"mttr"`
}

// FleetSummary is the merged fleet-wide row.
type FleetSummary struct {
	Shards           int                   `json:"shards"`
	StaleShards      int                   `json:"stale_shards"`
	FailedOverShards int                   `json:"failed_over_shards"`
	Devices          float64               `json:"devices"`
	SKUDevices       map[string]float64    `json:"sku_devices,omitempty"`
	Events           uint64                `json:"events_total"`
	Escalations      uint64                `json:"escalations_total"`
	Violations       uint64                `json:"violations_total"`
	EventsPerSec     float64               `json:"events_per_sec"`
	MTTR             QuantilesJSON         `json:"mttr"`
	TopProducers     []telemetry.TopKEntry `json:"top_producers,omitempty"`
	TopViolators     []telemetry.TopKEntry `json:"top_violators,omitempty"`
	TopMTTR          []telemetry.TopKEntry `json:"top_mttr_contributors,omitempty"`
}

// FleetView is the merged picture served at /debug/fleet.
type FleetView struct {
	TakenAt           time.Time      `json:"taken_at"`
	StaleAfterSeconds float64        `json:"stale_after_seconds"`
	Fleet             FleetSummary   `json:"fleet"`
	Shards            []ShardSummary `json:"shards"`
}

// View merges the current shard state. Stale shards stay in every
// cumulative aggregate (their history happened) and in device counts;
// they are only excluded from the instantaneous events/sec rate, and
// are counted in Fleet.StaleShards so monitoring can alarm on them.
func (f *FleetAggregator) View() FleetView {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.now()
	out := FleetView{
		TakenAt:           now,
		StaleAfterSeconds: f.staleAfter.Seconds(),
	}
	var mergedMTTR telemetry.HistogramRollup
	skuTotals := make(map[string]float64)
	var producers, violators, contributors []telemetry.TopKRollup

	names := make([]string, 0, len(f.shards))
	for name := range f.shards {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sh := f.shards[name]
		age := now.Sub(sh.lastSeen)
		sum := ShardSummary{
			Source:      name,
			LastSeq:     sh.lastSeq,
			AgeSeconds:  age.Seconds(),
			Stale:       age > f.staleAfter,
			Healthy:     sh.gauges[RollupHealthy] != 0,
			Devices:     sh.gauges[RollupDevices],
			Events:      sh.counters[RollupEvents],
			Escalations: sh.counters[RollupEscalations],
			Violations:  sh.counters[RollupViolations],
			MTTR:        quantilesOf(sh.hists[RollupMTTR]),
		}
		if sh.failedOver {
			sum.FailedOver = true
			sum.RehomedTo = sh.rehomedTo
			t := sh.recoveredAt
			sum.RecoveredAt = &t
			out.Fleet.FailedOverShards++
		}
		if sh.lastWindow > 0 && !sum.Stale {
			sum.EventsPerSec = float64(sh.lastEvents) / sh.lastWindow
		}
		for g, v := range sh.gauges {
			if sku, ok := strings.CutPrefix(g, RollupSKUPrefix); ok {
				if sum.SKUDevices == nil {
					sum.SKUDevices = make(map[string]float64)
				}
				sum.SKUDevices[sku] = v
				skuTotals[sku] += v
			}
		}
		out.Shards = append(out.Shards, sum)

		out.Fleet.Devices += sum.Devices
		out.Fleet.Events += sum.Events
		out.Fleet.Escalations += sum.Escalations
		out.Fleet.Violations += sum.Violations
		out.Fleet.EventsPerSec += sum.EventsPerSec
		if sum.Stale {
			out.Fleet.StaleShards++
		}
		if h, ok := sh.hists[RollupMTTR]; ok {
			// Bounds were vetted at Report time; a residual mismatch here
			// would have been counted there.
			_ = mergedMTTR.Merge(h)
		}
		if t, ok := sh.topk[RollupTopProducers]; ok {
			producers = append(producers, t)
		}
		if t, ok := sh.topk[RollupTopViolators]; ok {
			violators = append(violators, t)
		}
		if t, ok := sh.topk[RollupTopMTTR]; ok {
			contributors = append(contributors, t)
		}
	}
	out.Fleet.Shards = len(out.Shards)
	if len(skuTotals) > 0 {
		out.Fleet.SKUDevices = skuTotals
	}
	out.Fleet.MTTR = quantilesOf(mergedMTTR)
	out.Fleet.TopProducers = MergeTopKEntries(producers)
	out.Fleet.TopViolators = MergeTopKEntries(violators)
	out.Fleet.TopMTTR = MergeTopKEntries(contributors)
	return out
}

// MergeTopKEntries merges shard TopK snapshots under the fleet
// cardinality budget, dropping empty results to nil for compact JSON.
func MergeTopKEntries(ins []telemetry.TopKRollup) []telemetry.TopKEntry {
	if len(ins) == 0 {
		return nil
	}
	m := telemetry.MergeTopK(FleetTopKCapacity, ins...)
	if len(m.Entries) == 0 {
		return nil
	}
	return m.Entries
}

// MergedMTTR returns the fleet-wide merged MTTR histogram rollup
// (harness and tests re-derive quantiles from it).
func (f *FleetAggregator) MergedMTTR() telemetry.HistogramRollup {
	f.mu.Lock()
	defer f.mu.Unlock()
	var merged telemetry.HistogramRollup
	for _, sh := range f.shards {
		if h, ok := sh.hists[RollupMTTR]; ok {
			_ = merged.Merge(h)
		}
	}
	return merged
}

// Stats reports aggregator-level accounting.
func (f *FleetAggregator) Stats() (reports, dups, mergeErrors uint64) {
	return f.reports.Load(), f.dupReports.Load(), f.mergeErrors.Load()
}

// Handler serves the fleet view as JSON (mount at /debug/fleet).
func (f *FleetAggregator) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		telemetry.WriteJSON(w, f.View())
	})
}

// ExportTelemetry registers a scrape-time collector exposing the
// merged fleet series (iotsec_fleet_*) on reg (Default when nil).
// Re-registering under the same id replaces the previous collector.
func (f *FleetAggregator) ExportTelemetry(reg *telemetry.Registry, id string) {
	if reg == nil {
		reg = telemetry.Default
	}
	reg.RegisterCollector("fleet-aggregator:"+id, func(emit func(string, telemetry.Kind, string, telemetry.Labels, float64)) {
		v := f.View()
		emit("iotsec_fleet_shards", telemetry.KindGauge,
			"Shards known to the fleet aggregator.", nil, float64(v.Fleet.Shards))
		emit("iotsec_fleet_stale_shards", telemetry.KindGauge,
			"Shards past the staleness deadline (still in cumulative aggregates).", nil, float64(v.Fleet.StaleShards))
		emit("iotsec_fleet_failed_over_shards", telemetry.KindGauge,
			"Shards whose local controller failed over (partition re-homed).", nil, float64(v.Fleet.FailedOverShards))
		emit("iotsec_fleet_devices", telemetry.KindGauge,
			"Devices across all reporting shards.", nil, v.Fleet.Devices)
		emit("iotsec_fleet_events_total", telemetry.KindCounter,
			"Device events handled fleet-wide (merged shard rollups).", nil, float64(v.Fleet.Events))
		emit("iotsec_fleet_escalations_total", telemetry.KindCounter,
			"Events escalated to the global controller fleet-wide.", nil, float64(v.Fleet.Escalations))
		emit("iotsec_fleet_events_per_sec", telemetry.KindGauge,
			"Fleet event rate summed over fresh shards' last rollup windows.", nil, v.Fleet.EventsPerSec)
		reports, dups, mergeErrs := f.Stats()
		emit("iotsec_fleet_reports_total", telemetry.KindCounter,
			"Shard rollups applied by the aggregator.", nil, float64(reports))
		emit("iotsec_fleet_report_dups_total", telemetry.KindCounter,
			"Out-of-sequence shard rollups dropped (idempotent re-push).", nil, float64(dups))
		emit("iotsec_fleet_merge_errors_total", telemetry.KindCounter,
			"Histogram sections rejected on bounds mismatch.", nil, float64(mergeErrs))
		for _, sh := range v.Shards {
			labels := telemetry.Labels{{Key: "shard", Value: sh.Source}}
			emit("iotsec_fleet_mttr_p99_seconds", telemetry.KindGauge,
				"Per-shard detect→enforce p99 from merged rollups.", labels, sh.MTTR.P99)
		}
		emit("iotsec_fleet_mttr_p99_seconds", telemetry.KindGauge,
			"Per-shard detect→enforce p99 from merged rollups.",
			telemetry.Labels{{Key: "shard", Value: "fleet"}}, v.Fleet.MTTR.P99)
	})
}

// --- hierarchy integration ---

// fleetStatsSet is the atomically published shard-stats map; a nil
// pointer means fleet telemetry is detached and the event hot path
// pays one atomic load + branch.
type fleetStatsSet struct {
	byGroup map[int]*ShardStats
}

// EnableFleetStats attaches per-partition ShardStats to the
// hierarchy's local controllers (idempotent: a second call returns the
// existing set). Returns the stats keyed by partition group so
// enforcement layers can feed detect→enforce observations into the
// owning shard.
func (h *Hierarchy) EnableFleetStats() map[int]*ShardStats {
	if set := h.fleetStats.Load(); set != nil {
		return set.byGroup
	}
	byGroup := make(map[int]*ShardStats, len(h.locals))
	for g := range h.locals {
		s := NewShardStats(fmt.Sprintf("shard-%03d", g), nil)
		s.SetDevices(len(h.partitioning.Groups[g]))
		byGroup[g] = s
	}
	set := &fleetStatsSet{byGroup: byGroup}
	if !h.fleetStats.CompareAndSwap(nil, set) {
		return h.fleetStats.Load().byGroup
	}
	return byGroup
}

// FleetStats returns the attached shard stats (nil when detached).
func (h *Hierarchy) FleetStats() map[int]*ShardStats {
	if set := h.fleetStats.Load(); set != nil {
		return set.byGroup
	}
	return nil
}

// recordShardEvent feeds the owning shard's stats if attached.
func (h *Hierarchy) recordShardEvent(group int, device string, escalated bool) {
	set := h.fleetStats.Load()
	if set == nil {
		return
	}
	s := set.byGroup[group]
	if s == nil {
		return
	}
	s.RecordEvent(device)
	if escalated {
		s.RecordEscalation()
	}
}

// FleetRollupPlane periodically pushes every shard's rollup delta up
// to a fleet aggregator — the hierarchical transport of the telemetry
// plane. One resilience.Loop serves all shards (rollup extraction is
// a snapshot fold, far off the event hot path).
type FleetRollupPlane struct {
	agg   *FleetAggregator
	stats []*ShardStats

	// incidents, when attached, has its digests pushed with every
	// rollup flush (the incident side-channel of the shard report).
	incidents atomic.Pointer[incidentFeed]

	loop resilience.Loop
}

// incidentFeed pairs an incident source with its reporting name.
type incidentFeed struct {
	source string
	src    IncidentSource
}

// AttachIncidents registers src as this plane's incident feed: the
// aggregator gets the live pull handle immediately, and every flush
// pushes the current digest set alongside the shard rollups.
func (p *FleetRollupPlane) AttachIncidents(source string, src IncidentSource) {
	p.incidents.Store(&incidentFeed{source: source, src: src})
	p.agg.AttachIncidentSource(source, src)
}

// StartFleetRollups enables shard stats (if not already) and starts
// pushing rollup deltas to agg every interval (default 1s). Stop
// flushes one final rollup so short-lived runs lose nothing.
func (h *Hierarchy) StartFleetRollups(agg *FleetAggregator, interval time.Duration) *FleetRollupPlane {
	if interval <= 0 {
		interval = time.Second
	}
	byGroup := h.EnableFleetStats()
	stats := make([]*ShardStats, 0, len(byGroup))
	groups := make([]int, 0, len(byGroup))
	for g := range byGroup {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	for _, g := range groups {
		stats = append(stats, byGroup[g])
	}
	p := &FleetRollupPlane{agg: agg, stats: stats}
	p.loop.Start(resilience.System, interval, nil, func(bool) { p.Flush() })
	return p
}

// Flush pushes one rollup per shard immediately (plus the incident
// digests when a feed is attached).
func (p *FleetRollupPlane) Flush() {
	now := time.Now()
	for _, s := range p.stats {
		_ = p.agg.Report(s.Rollup(now))
	}
	if feed := p.incidents.Load(); feed != nil {
		p.agg.ReportIncidents(feed.source, feed.src.Digests())
	}
}

// Stop halts the pusher, then flushes one final rollup (a repeated Stop
// pushes one more, empty, delta).
func (p *FleetRollupPlane) Stop() {
	p.loop.Stop()
	p.Flush()
}

// Fleet returns the global controller's fleet aggregator, creating it
// on first use (default staleness deadline).
func (g *Global) Fleet() *FleetAggregator {
	g.fleetOnce.Do(func() {
		g.fleet = NewFleetAggregator(0)
	})
	return g.fleet
}
