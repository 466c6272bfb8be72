package controller

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/policy"
	"iotsec/internal/telemetry"
)

// buildFleetHierarchy makes n devices in shards of shardSize, each
// device carrying one self-targeting local rule on its own "_attr"
// env var (posture flips zero↔Block as the attr alternates a/b). extra
// rules follow the per-device ones.
func buildFleetHierarchy(n, shardSize int, sink PostureSink, extra ...policy.Rule) (*Hierarchy, []string) {
	devs := make([]string, n)
	for i := range devs {
		devs[i] = fmt.Sprintf("dev%06d", i)
	}
	d := policy.NewDomain()
	f := policy.NewFSM(d)
	for _, dev := range devs {
		d.AddDevice(dev, policy.ContextNormal, policy.ContextSuspicious)
		d.AddEnvVar(dev+"_attr", "a", "b")
		f.AddRule(policy.Rule{
			Name:       "local-" + dev,
			Conditions: []policy.Condition{policy.EnvIs(dev+"_attr", "b")},
			Device:     dev,
			Posture:    policy.Posture{BlockCommands: []string{"ON"}},
			Priority:   5,
		})
	}
	for _, r := range extra {
		f.AddRule(r)
	}
	// Star edges within each block of shardSize keep blocks together.
	var edges []InteractionEdge
	for i, dev := range devs {
		if anchor := i - i%shardSize; anchor != i {
			edges = append(edges, InteractionEdge{A: devs[anchor], B: dev, Weight: 1})
		}
	}
	part := Partition(devs, edges, shardSize)
	envLocality := make(map[string]int, n)
	for _, dev := range devs {
		envLocality[dev+"_attr"] = part.GroupOf(dev)
	}
	return NewHierarchy(f, part, envLocality, sink), devs
}

// TestFleetAggregatorMergeAndStaleness: shard reports merge into the
// fleet view; a shard that stops reporting surfaces as stale, keeps
// its cumulative totals, and only drops out of the event rate.
func TestFleetAggregatorMergeAndStaleness(t *testing.T) {
	agg := NewFleetAggregator(10 * time.Second)
	now := time.Unix(1000, 0)
	agg.now = func() time.Time { return now }

	a := NewShardStats("shard-a")
	b := NewShardStats("shard-b")
	a.SetDevices(3)
	b.SetDevices(2)
	for i := 0; i < 10; i++ {
		a.RecordEvent("dev-a1")
		a.ObserveE2E("dev-a1", 0.002)
	}
	a.RecordEscalation()
	b.RecordEvent("dev-b1")
	b.ObserveE2E("dev-b1", 0.5)

	// Per-SKU counts and violations come from other producers (the
	// platform's self-report); the aggregator merges them from any
	// report.
	ra, rb := a.Rollup(now), b.Rollup(now)
	ra.SKUDevices = map[string]int{"cam-v1": 2, "plug-v2": 1}
	rb.SKUDevices = map[string]int{"cam-v1": 2}
	rb.Violations = 1
	rb.TopViolators = telemetry.TopKRollup{K: FleetTopKCapacity, Offers: 1,
		Entries: []telemetry.TopKEntry{{Key: "dev-b1", Count: 1}}}
	if err := agg.Report(ra); err != nil {
		t.Fatalf("report a: %v", err)
	}
	if err := agg.Report(rb); err != nil {
		t.Fatalf("report b: %v", err)
	}

	v := agg.View()
	if v.Fleet.Shards != 2 || v.Fleet.StaleShards != 0 {
		t.Fatalf("shards=%d stale=%d", v.Fleet.Shards, v.Fleet.StaleShards)
	}
	if v.Fleet.Events != 11 || v.Fleet.Escalations != 1 || v.Fleet.Violations != 1 {
		t.Fatalf("fleet totals: %+v", v.Fleet)
	}
	if v.Fleet.Devices != 5 || v.Fleet.SKUDevices["cam-v1"] != 4 || v.Fleet.SKUDevices["plug-v2"] != 1 {
		t.Fatalf("device rollup: %+v", v.Fleet)
	}
	if v.Fleet.MTTR.Count != 11 {
		t.Fatalf("merged MTTR count = %d", v.Fleet.MTTR.Count)
	}
	if len(v.Fleet.TopProducers) == 0 || v.Fleet.TopProducers[0].Key != "dev-a1" {
		t.Fatalf("top producers: %+v", v.Fleet.TopProducers)
	}
	if len(v.Fleet.TopViolators) != 1 || v.Fleet.TopViolators[0].Key != "dev-b1" {
		t.Fatalf("top violators: %+v", v.Fleet.TopViolators)
	}

	// Only shard-a keeps reporting; shard-b goes quiet past the
	// staleness deadline.
	now = now.Add(11 * time.Second)
	a.RecordEvent("dev-a2")
	if err := agg.Report(a.Rollup(now)); err != nil {
		t.Fatalf("report a2: %v", err)
	}
	v = agg.View()
	if v.Fleet.StaleShards != 1 {
		t.Fatalf("stale shards = %d, want 1", v.Fleet.StaleShards)
	}
	var staleB *ShardSummary
	for i := range v.Shards {
		if v.Shards[i].Source == "shard-b" {
			staleB = &v.Shards[i]
		}
	}
	if staleB == nil || !staleB.Stale {
		t.Fatalf("shard-b not surfaced as stale: %+v", v.Shards)
	}
	// Stale shard keeps its cumulative history and device counts...
	if staleB.Events != 1 || v.Fleet.Events != 12 || v.Fleet.Devices != 5 {
		t.Fatalf("stale shard dropped from aggregates: %+v", v.Fleet)
	}
	// ...but contributes nothing to the instantaneous rate.
	if staleB.EventsPerSec != 0 {
		t.Fatalf("stale shard still in the rate: %+v", staleB)
	}
}

// TestFleetAggregatorSeqIdempotence: re-pushing the same report (a
// retry) must not double-count.
func TestFleetAggregatorSeqIdempotence(t *testing.T) {
	agg := NewFleetAggregator(0)
	s := NewShardStats("shard-x")
	s.RecordEvent("d1")
	s.RecordEvent("d2")
	r1 := s.Rollup(time.Unix(0, 0))

	if err := agg.Report(r1); err != nil {
		t.Fatalf("report: %v", err)
	}
	if err := agg.Report(r1); err != nil { // retried push
		t.Fatalf("re-report: %v", err)
	}
	v := agg.View()
	if v.Fleet.Events != 2 {
		t.Fatalf("retry double-counted: events = %d, want 2", v.Fleet.Events)
	}
	reports, dups, _ := agg.Stats()
	if reports != 1 || dups != 1 {
		t.Fatalf("reports=%d dups=%d, want 1/1", reports, dups)
	}
}

// TestFleetAggregatorBoundsMismatchSurfaces: a shard pushing a
// histogram with different bounds is rejected (counted, errored) and
// the merged state stays intact.
func TestFleetAggregatorBoundsMismatchSurfaces(t *testing.T) {
	agg := NewFleetAggregator(0)
	good := NewShardStats("shard-good")
	good.ObserveE2E("d", 0.01)
	if err := agg.Report(good.Rollup(time.Unix(0, 0))); err != nil {
		t.Fatalf("report good: %v", err)
	}
	bad := telemetry.NewStandaloneHistogram([]float64{1, 2, 3})
	bad.Observe(0.01)
	r := good.Rollup(time.Unix(1, 0)) // same source, wrong bounds
	r.MTTR = bad.Rollup()
	if err := agg.Report(r); err == nil {
		t.Fatal("bounds mismatch did not error")
	}
	_, _, mergeErrs := agg.Stats()
	if mergeErrs != 1 {
		t.Fatalf("merge errors = %d, want 1", mergeErrs)
	}
	if got := agg.View().Fleet.MTTR.Count; got != 1 {
		t.Fatalf("merged count after rejected push = %d, want 1", got)
	}
}

// TestFleetMergedQuantilesMatchDirect: the fleet-merged MTTR
// distribution must reproduce a direct (unsharded) measurement of the
// same observations — quantiles agree exactly, well within the
// one-bucket acceptance bound.
func TestFleetMergedQuantilesMatchDirect(t *testing.T) {
	agg := NewFleetAggregator(0)
	direct := telemetry.NewStandaloneHistogram(nil)
	shards := make([]*ShardStats, 8)
	for i := range shards {
		shards[i] = NewShardStats(fmt.Sprintf("shard-%d", i))
	}
	vals := []float64{12e-6, 80e-6, 300e-6, 900e-6, 2e-3, 9e-3, 40e-3, 120e-3, 0.8, 3}
	for i := 0; i < 5000; i++ {
		v := vals[i%len(vals)]
		direct.Observe(v)
		shards[i%len(shards)].ObserveE2E("dev", v)
	}
	now := time.Unix(0, 0)
	for _, s := range shards {
		if err := agg.Report(s.Rollup(now)); err != nil {
			t.Fatalf("report: %v", err)
		}
	}
	merged := agg.View().Fleet.MTTR
	if merged.Count != direct.Count() {
		t.Fatalf("merged count = %d, direct = %d", merged.Count, direct.Count())
	}
	for q, got := range map[float64]float64{0.5: merged.P50, 0.95: merged.P95, 0.99: merged.P99} {
		if want := direct.Quantile(q); got != want {
			t.Fatalf("q%.2f: merged %v, direct %v", q, got, want)
		}
	}
}

// TestHierarchyFleetRollups drives a small sharded hierarchy with the
// rollup plane attached end to end: events land in per-shard stats,
// shard reports reach the global aggregator, and the fleet view
// reflects them.
func TestHierarchyFleetRollups(t *testing.T) {
	h, devs := buildFleetHierarchy(32, 8, nil)
	if h.Locals() != 4 {
		t.Fatalf("locals = %d, want 4", h.Locals())
	}
	agg := h.Global.Fleet()
	plane := h.StartFleetRollups(agg, time.Hour) // Stop() flushes; no tick needed
	stats := h.EnableFleetStats()                // the set StartFleetRollups attached
	if len(stats) != 4 {
		t.Fatalf("fleet stats for %d shards, want 4", len(stats))
	}

	vals := [2]string{"b", "a"}
	for round := 0; round < 2; round++ {
		for _, dev := range devs {
			h.HandleDeviceEvent(context.Background(), device.Event{
				Device: dev, Kind: device.EventStateChange, Detail: "attr=" + vals[round],
			})
		}
	}
	// Feed one e2e observation so MTTR shows up.
	for _, s := range stats {
		s.ObserveE2E(devs[0], 0.004)
	}
	plane.Stop()

	v := agg.View()
	if v.Fleet.Shards != 4 {
		t.Fatalf("fleet shards = %d, want 4", v.Fleet.Shards)
	}
	if v.Fleet.Events != uint64(2*len(devs)) {
		t.Fatalf("fleet events = %d, want %d", v.Fleet.Events, 2*len(devs))
	}
	if v.Fleet.Devices != float64(len(devs)) {
		t.Fatalf("fleet devices = %v, want %d", v.Fleet.Devices, len(devs))
	}
	if v.Fleet.Escalations != 0 {
		t.Fatalf("purely local fleet escalated %d events", v.Fleet.Escalations)
	}
	if v.Fleet.MTTR.Count != 4 {
		t.Fatalf("fleet MTTR count = %d, want 4", v.Fleet.MTTR.Count)
	}
	if len(v.Fleet.TopProducers) == 0 {
		t.Fatal("no top producers in fleet view")
	}
	// Second EnableFleetStats returns the same set (idempotent).
	again := h.EnableFleetStats()
	if len(again) != 4 || again[0] != stats[0] {
		t.Fatal("EnableFleetStats not idempotent")
	}
}

// TestHierarchyFleetRollupsUnderLoad drives the rollup plane the way a
// fleet run does: two goroutines flip shard-aligned halves of the fleet
// concurrently while the plane flushes every few milliseconds, a
// cross-partition rule plus backdoor probes escalate to the global
// controller, and the posture sink feeds each detect→enforce latency
// both into the owning shard's stats and into one pooled histogram.
// After Stop the merged fleet view must reproduce the pooled one
// exactly.
func TestHierarchyFleetRollupsUnderLoad(t *testing.T) {
	const n, shardSize = 256, 8

	epoch := time.Now()
	inject := make([]int64, n)
	direct := telemetry.NewStandaloneHistogram(nil)
	// The sink runs inside HandleDeviceEvent, possibly before the stats
	// are attached, so it loads them atomically.
	var statsByIdx atomic.Pointer[[]*ShardStats]
	sink := func(_ context.Context, dev string, _ policy.Posture, _ uint64) {
		i, err := strconv.Atoi(dev[len("dev"):])
		if err != nil || i >= n {
			return
		}
		// Swap-to-zero claims the in-flight timestamp once; the first
		// reconcile's zero-posture sweep finds 0 and records nothing.
		ts := atomic.SwapInt64(&inject[i], 0)
		if ts == 0 {
			return
		}
		lat := (time.Since(epoch) - time.Duration(ts)).Seconds()
		if sp := statsByIdx.Load(); sp != nil {
			(*sp)[i].ObserveE2E(dev, lat)
		}
		direct.Observe(lat)
	}
	cross := policy.Rule{
		Name: "global-cross",
		Conditions: []policy.Condition{
			policy.DeviceIs("dev000000", policy.ContextSuspicious),
			policy.DeviceIs(fmt.Sprintf("dev%06d", n-1), policy.ContextSuspicious),
		},
		Device:   "dev000000",
		Posture:  policy.Posture{Isolate: true},
		Priority: 9,
	}
	h, devs := buildFleetHierarchy(n, shardSize, sink, cross)
	if h.Locals() < 2 {
		t.Fatalf("fleet did not shard: %d locals", h.Locals())
	}

	byGroup := h.EnableFleetStats()
	idx := make([]*ShardStats, n)
	for i, dev := range devs {
		idx[i] = byGroup[h.partitioning.GroupOf(dev)]
	}
	statsByIdx.Store(&idx)

	agg := h.Global.Fleet()
	plane := h.StartFleetRollups(agg, 2*time.Millisecond)

	var stop atomic.Bool
	var wg sync.WaitGroup
	vals := [2]string{"b", "a"}
	half := n / 2 // a multiple of shardSize: each goroutine owns whole shards
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(lo, hi int, probes bool) {
			defer wg.Done()
			ctx := context.Background()
			for round := 0; !stop.Load(); round++ {
				detail := "attr=" + vals[round&1]
				for i := lo; i < hi; i++ {
					atomic.StoreInt64(&inject[i], int64(time.Since(epoch)))
					h.HandleDeviceEvent(ctx, device.Event{Device: devs[i], Kind: device.EventStateChange, Detail: detail})
				}
				if probes && round%8 == 0 {
					h.HandleDeviceEvent(ctx, device.Event{Device: devs[0], Kind: device.EventBackdoorAccess, Detail: "probe"})
					h.HandleDeviceEvent(ctx, device.Event{Device: devs[n-1], Kind: device.EventBackdoorAccess, Detail: "probe"})
				}
			}
		}(w*half, (w+1)*half, w == 0)
	}
	// Drive until the plane has pushed every shard three times mid-run.
	flushed := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if reports, _, _ := agg.Stats(); reports >= uint64(3*h.Locals()) {
			flushed = true
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	plane.Stop() // final flush: nothing observed is lost
	if !flushed {
		t.Fatal("the rollup plane never flushed mid-run")
	}

	v := agg.View()
	if v.Fleet.Shards != h.Locals() || v.Fleet.StaleShards != 0 {
		t.Fatalf("fleet view: shards=%d stale=%d, want %d/0", v.Fleet.Shards, v.Fleet.StaleShards, h.Locals())
	}
	if v.Fleet.Events == 0 {
		t.Fatal("no events reached the fleet view")
	}
	if _, escalated := h.Metrics(); escalated == 0 || v.Fleet.Escalations == 0 {
		t.Fatalf("escalation path never exercised: hierarchy %d, fleet view %d", escalated, v.Fleet.Escalations)
	}
	merged := v.Fleet.MTTR
	if merged.Count == 0 || merged.Count != direct.Count() {
		t.Fatalf("merged count %d, direct %d", merged.Count, direct.Count())
	}
	for q, got := range map[float64]float64{0.50: merged.P50, 0.99: merged.P99} {
		if want := direct.Quantile(q); got != want {
			t.Fatalf("p%.0f: merged %v, direct %v", q*100, got, want)
		}
	}
}

// TestFleetConcurrentFlushLosesNoEvents: Flush called from two
// goroutines beside the plane's own loop (the benchmark's per-layer
// probe flushes this way) must not lose counted events. Two flushes
// can overlap, so an older report may land after a newer one and be
// dropped by Seq; the newer one must already carry its counts.
func TestFleetConcurrentFlushLosesNoEvents(t *testing.T) {
	const events = 200_000
	h, devs := buildFleetHierarchy(32, 8, nil)
	agg := h.Global.Fleet()
	plane := h.StartFleetRollups(agg, time.Millisecond)
	stats := h.EnableFleetStats()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				plane.Flush()
			}
		}()
	}
	for i := 0; i < events; i++ {
		dev := devs[i%len(devs)]
		stats[h.partitioning.GroupOf(dev)].RecordEvent(dev)
	}
	stop.Store(true)
	wg.Wait()
	plane.Stop()
	if got := agg.View().Fleet.Events; got != events {
		t.Fatalf("fleet view counts %d events, want %d (%d lost)", got, events, events-int(got))
	}
}

// fleetFlushBudget is what one Flush may allocate per shard: the
// figure measured when each shard began shipping one typed cumulative
// report, plus 20%.
const fleetFlushBudget = 1.2 * 1456

// TestFleetFlushBytesPerShard pins the heap one Flush allocates per
// shard on the benchmark's fleet_100k shape (100,000 devices in 1,563
// shards of 64), with every shard's TopK summaries full and its MTTR
// histogram spread over the buckets. The fewest bytes of three rounds
// count, so a stray allocation elsewhere in the process does not.
func TestFleetFlushBytesPerShard(t *testing.T) {
	const shards, devices, flushes = 1563, 64, 10
	stats := make([]*ShardStats, shards)
	for g := range stats {
		s := NewShardStats(fmt.Sprintf("shard-%03d", g))
		s.SetDevices(devices)
		for d := 0; d < devices; d++ {
			dev := fmt.Sprintf("dev%06d", g*devices+d)
			s.RecordEvent(dev)
			s.ObserveE2E(dev, float64(d+1)*1e-4)
		}
		s.RecordEscalation()
		stats[g] = s
	}
	plane := &FleetRollupPlane{agg: NewFleetAggregator(0), stats: stats}
	plane.Flush() // every shard's row exists from here on

	perShard := math.Inf(1)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < flushes; i++ {
			plane.Flush()
		}
		runtime.ReadMemStats(&after)
		perShard = min(perShard, float64(after.TotalAlloc-before.TotalAlloc)/(shards*flushes))
	}
	t.Logf("%.0f bytes allocated per shard per flush (budget %.0f)", perShard, fleetFlushBudget)
	if perShard > fleetFlushBudget {
		t.Fatalf("a flush allocates %.0f bytes per shard, budget %.0f", perShard, fleetFlushBudget)
	}
}

// TestScopedLocalDomains: local controllers must not carry the whole
// fleet's device domain — local reconciles are O(shard), which is the
// property the 10⁵-device harness leans on.
func TestScopedLocalDomains(t *testing.T) {
	h, _ := buildFleetHierarchy(64, 8, nil)
	for g, l := range h.locals {
		if got := len(l.fsm.Domain.Devices()); got != 8 {
			t.Fatalf("local %d domain holds %d devices, want 8 (shard-scoped)", g, got)
		}
	}
}

func benchmarkHierarchyEvent(b *testing.B, attach bool) {
	h, devs := buildFleetHierarchy(256, 8, nil)
	if attach {
		h.EnableFleetStats()
	}
	vals := [2]string{"a", "b"}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev := devs[i%len(devs)]
		h.HandleDeviceEvent(ctx, device.Event{
			Device: dev,
			Kind:   device.EventStateChange,
			Detail: "attr=" + vals[(i/len(devs))%2],
		})
	}
}

// The rollup plane's hot-path cost: the same event stream with fleet
// stats detached and attached. CI's perf job compares each with the
// parent commit.
func BenchmarkHierarchyEventDetached(b *testing.B) { benchmarkHierarchyEvent(b, false) }
func BenchmarkHierarchyEventAttached(b *testing.B) { benchmarkHierarchyEvent(b, true) }
