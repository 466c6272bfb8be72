package controller

import (
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iotsec/internal/resilience"
	"iotsec/internal/telemetry"
)

// FleetTopKCapacity is the per-dimension cardinality budget: a shard
// never exports more than this many per-device series per dimension,
// and the fleet view never carries more than this many after merging —
// regardless of fleet size.
const FleetTopKCapacity = 16

// ShardReport is what one shard ships up the hierarchy: a cumulative
// snapshot of its telemetry, so a lost report loses nothing (the next
// carries the totals) and a repeated one is dropped by Seq. Sources
// never reset their counts: ShardStats lives as long as its hierarchy,
// and the platform's self-report reads process-wide counters.
type ShardReport struct {
	// Source names the shard ("shard-003", "gateway"); the aggregator
	// keys state by it.
	Source string
	// Seq increases by one per report taken from this source.
	Seq uint64
	// TakenAt is the source's clock at snapshot time.
	TakenAt time.Time

	Events      uint64
	Escalations uint64
	Violations  uint64
	MTTR        telemetry.HistogramRollup

	Devices    int
	SKUDevices map[string]int

	TopProducers telemetry.TopKRollup
	TopViolators telemetry.TopKRollup
	TopMTTR      telemetry.TopKRollup
}

// ShardStats is the bounded-cardinality telemetry one local
// controller accumulates and reports up the hierarchy. The write paths
// are a counter add plus a TopK offer (one uncontended per-shard
// mutex); per-device dimensions are capped at FleetTopKCapacity keys
// via space-saving summaries, so shard telemetry stays O(1) in device
// count.
type ShardStats struct {
	source string

	events      telemetry.Counter
	escalations telemetry.Counter
	e2e         *telemetry.Histogram

	topProducers *telemetry.TopK
	topMTTR      *telemetry.TopK

	devices atomic.Int64

	// mu orders report sequence numbers with the snapshots they carry,
	// so a higher Seq never holds smaller totals.
	mu  sync.Mutex
	seq uint64
}

// NewShardStats builds stats for one reporting source, with the MTTR
// histogram on telemetry.LatencyBuckets.
func NewShardStats(source string) *ShardStats {
	return &ShardStats{
		source:       source,
		e2e:          telemetry.NewStandaloneHistogram(nil),
		topProducers: telemetry.NewStandaloneTopK(FleetTopKCapacity),
		topMTTR:      telemetry.NewStandaloneTopK(FleetTopKCapacity),
	}
}

// RecordEvent counts one handled event from a device (hot path: one
// atomic add + one per-shard TopK offer).
func (s *ShardStats) RecordEvent(device string) {
	s.events.Inc()
	s.topProducers.Inc(device)
}

// RecordEscalation counts an event that escalated to the global
// controller.
func (s *ShardStats) RecordEscalation() { s.escalations.Inc() }

// ObserveE2E records one detect→enforce latency and credits the
// device as an MTTR contributor (weight = microseconds, so slow
// devices float to the top regardless of event volume).
func (s *ShardStats) ObserveE2E(device string, seconds float64) {
	s.e2e.Observe(seconds)
	if us := uint64(seconds * 1e6); us > 0 {
		s.topMTTR.Offer(device, us)
	}
}

// SetDevices records the shard's device count.
func (s *ShardStats) SetDevices(n int) { s.devices.Store(int64(n)) }

// Rollup snapshots the shard's cumulative report. Safe to call
// concurrently: each call takes the next Seq.
func (s *ShardStats) Rollup(now time.Time) ShardReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	return ShardReport{
		Source:       s.source,
		Seq:          s.seq,
		TakenAt:      now,
		Events:       s.events.Value(),
		Escalations:  s.escalations.Value(),
		MTTR:         s.e2e.Rollup(),
		Devices:      int(s.devices.Load()),
		TopProducers: s.topProducers.Snapshot(),
		TopMTTR:      s.topMTTR.Snapshot(),
	}
}

// --- fleet aggregation ---

// shardAgg is the aggregator's per-source state.
type shardAgg struct {
	last     ShardReport // latest applied report; Seq 0 until one lands
	lastSeen time.Time

	// prevEvents and prevTakenAt come from the report before last: the
	// event rate is the step between the two.
	prevEvents  uint64
	prevTakenAt time.Time

	// Failover surfacing: set by the supervisor when the shard's local
	// controller died and its partition was re-homed. Explicit state —
	// a failed-over shard is more than STALE.
	failedOver  bool
	rehomedTo   string
	recoveredAt time.Time
}

// FleetAggregator merges shard reports into the fleet view (§5.1's
// global controller role for telemetry): the latest cumulative report
// per shard, merged across shards at read time, with staleness
// tracking — a shard that stops reporting is *surfaced* as stale (and
// excluded from instantaneous rates) rather than silently dropped
// from cumulative aggregates.
type FleetAggregator struct {
	staleAfter time.Duration
	now        func() time.Time

	mu     sync.Mutex
	shards map[string]*shardAgg

	// Live incident sources by shard (fleet_incidents.go).
	incMu      sync.Mutex
	incSources map[string]IncidentSource

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

// shardLocked returns source's row, creating it on first sight.
// Caller holds f.mu.
func (f *FleetAggregator) shardLocked(source string) *shardAgg {
	sh := f.shards[source]
	if sh == nil {
		sh = &shardAgg{}
		f.shards[source] = sh
	}
	return sh
}

// Report applies one shard report. A report whose Seq is not greater
// than the last applied one from the same source is dropped (a retry,
// or an older snapshot overtaken by a newer one). An MTTR histogram
// whose bounds differ from the shard's earlier ones is rejected with
// an error, and the shard keeps its previous MTTR; the rest of the
// report still applies.
func (f *FleetAggregator) Report(r ShardReport) error {
	if r.Source == "" {
		return fmt.Errorf("controller: fleet report without a source")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	sh := f.shardLocked(r.Source)
	if r.Seq <= sh.last.Seq {
		f.dupReports.Add(1)
		return nil
	}
	f.reports.Add(1)
	var err error
	if prev := sh.last.MTTR; len(prev.Bounds) > 0 && !slices.Equal(prev.Bounds, r.MTTR.Bounds) {
		f.mergeErrors.Add(1)
		err = fmt.Errorf("controller: fleet report from %s: MTTR bounds mismatch (%v vs %v)", r.Source, prev.Bounds, r.MTTR.Bounds)
		r.MTTR = prev
	}
	sh.prevEvents, sh.prevTakenAt = sh.last.Events, sh.last.TakenAt
	sh.last = r
	sh.lastSeen = f.now()
	return err
}

// SetShardFailover marks a shard as failed over and re-homed: the
// supervisor calls it at recovery-complete so /debug/fleet and mboxctl
// fleet show FAILED-OVER / RE-HOMED-TO state explicitly instead of
// letting the shard quietly go STALE. Creates the shard row if it never
// reported (a controller can die before its first report); lastSeen is
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
		r := &sh.last
		age := now.Sub(sh.lastSeen)
		sum := ShardSummary{
			Source:      name,
			LastSeq:     r.Seq,
			AgeSeconds:  age.Seconds(),
			Stale:       age > f.staleAfter,
			Healthy:     r.Seq > 0,
			Devices:     float64(r.Devices),
			Events:      r.Events,
			Escalations: r.Escalations,
			Violations:  r.Violations,
			MTTR:        quantilesOf(r.MTTR),
		}
		if sh.failedOver {
			sum.FailedOver = true
			sum.RehomedTo = sh.rehomedTo
			t := sh.recoveredAt
			sum.RecoveredAt = &t
			out.Fleet.FailedOverShards++
		}
		if window := r.TakenAt.Sub(sh.prevTakenAt).Seconds(); !sh.prevTakenAt.IsZero() && window > 0 && !sum.Stale {
			sum.EventsPerSec = float64(r.Events-sh.prevEvents) / window
		}
		for sku, n := range r.SKUDevices {
			if sum.SKUDevices == nil {
				sum.SKUDevices = make(map[string]float64, len(r.SKUDevices))
			}
			sum.SKUDevices[sku] = float64(n)
			skuTotals[sku] += float64(n)
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
		if len(r.MTTR.Bounds) > 0 {
			// A shard's bounds were vetted against its own earlier
			// reports; a shard on other bounds than the first merged one
			// is left out here.
			_ = mergedMTTR.Merge(r.MTTR)
		}
		producers = append(producers, r.TopProducers)
		violators = append(violators, r.TopViolators)
		contributors = append(contributors, r.TopMTTR)
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
		s := NewShardStats(fmt.Sprintf("shard-%03d", g))
		s.SetDevices(len(h.partitioning.Groups[g]))
		byGroup[g] = s
	}
	set := &fleetStatsSet{byGroup: byGroup}
	if !h.fleetStats.CompareAndSwap(nil, set) {
		return h.fleetStats.Load().byGroup
	}
	return byGroup
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

// FleetRollupPlane periodically pushes every shard's report up to a
// fleet aggregator — the hierarchical transport of the telemetry plane.
// One resilience.Loop serves all shards (a report is a snapshot fold,
// far off the event hot path).
type FleetRollupPlane struct {
	agg   *FleetAggregator
	stats []*ShardStats

	loop resilience.Loop
}

// AttachIncidents registers src with the aggregator as the live
// incident source named source.
func (p *FleetRollupPlane) AttachIncidents(source string, src IncidentSource) {
	p.agg.AttachIncidentSource(source, src)
}

// StartFleetRollups enables shard stats (if not already) and starts
// pushing shard reports to agg every interval (default 1s). Stop
// flushes one final report so short-lived runs lose nothing.
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

// Flush pushes one report per shard immediately. Safe beside the
// plane's own loop: an older snapshot that lands second is dropped,
// and the newer one already carries its counts.
func (p *FleetRollupPlane) Flush() {
	now := time.Now()
	for _, s := range p.stats {
		_ = p.agg.Report(s.Rollup(now))
	}
}

// Stop halts the pusher, then flushes one final report (a repeated
// Stop pushes the same totals again under a new Seq).
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
