package controller

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"iotsec/internal/telemetry"
)

// This file keeps the fleet plane as it stood when shards shipped
// string-keyed delta reports, as the oracle for the typed cumulative
// ShardReport: a delta builder over a shard's live metrics and a
// map-based aggregator. TestFleetReportMatchesDeltaOracle drives both
// with the same random streams and requires the same fleet view.
//
// The designs differ on purpose where a report is lost to the
// aggregator. The oracle loses the dropped delta for good; a
// cumulative report carries the true totals, so the next accepted one
// restores them. Two steps lose a report:
//
//   - an out-of-order pair, the newer report landing first and the
//     older one dropped by Seq;
//   - a report whose MTTR histogram has the wrong bounds, whose
//     histogram section both designs reject.
//
// In those steps the test folds the lost delta back into the oracle
// once the new plane holds the totals again (the recorded truth), and
// checks the one figure folding cannot repair, the out-of-order step's
// event rate, against the producer's own counts.
//
// One more difference never arises in production and the streams do
// not make it: the oracle keeps a SKU's last device count after the
// source stops reporting that SKU, where the typed report drops it. A
// source's SKU set here only grows, as a Platform's does (it never
// removes a device).

// Section names of the delta oracle.
const (
	oEvents       = "events_total"
	oEscalations  = "escalations_total"
	oViolations   = "violations_total"
	oMTTR         = "mttr_e2e_seconds"
	oTopProducers = "top_producers"
	oTopViolators = "top_violators"
	oTopMTTR      = "top_mttr_contributors"
	oDevices      = "devices"
	oHealthy      = "healthy"
	oSKUPrefix    = "devices_sku:"
)

// deltaReport is one window of a source's metrics: counter and
// histogram deltas since the previous report, gauge and TopK
// snapshots.
type deltaReport struct {
	Source        string
	Seq           uint64
	TakenAt       time.Time
	WindowSeconds float64

	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]telemetry.HistogramRollup
	TopK       map[string]telemetry.TopKRollup
}

// deltaBuilder takes successive deltaReports from registered live
// metrics, remembering each counter's and histogram's previous
// cumulative value. Single-goroutine: the test drives it alone.
type deltaBuilder struct {
	source   string
	seq      uint64
	lastTake time.Time

	counters map[string]*telemetry.Counter
	gauges   map[string]func() float64
	hists    map[string]*telemetry.Histogram
	topks    map[string]*telemetry.TopK

	prevCounters map[string]uint64
	prevHists    map[string]telemetry.HistogramRollup
}

func newDeltaBuilder(source string) *deltaBuilder {
	return &deltaBuilder{
		source:       source,
		counters:     make(map[string]*telemetry.Counter),
		gauges:       make(map[string]func() float64),
		hists:        make(map[string]*telemetry.Histogram),
		topks:        make(map[string]*telemetry.TopK),
		prevCounters: make(map[string]uint64),
		prevHists:    make(map[string]telemetry.HistogramRollup),
	}
}

func (b *deltaBuilder) take(now time.Time) deltaReport {
	b.seq++
	r := deltaReport{Source: b.source, Seq: b.seq, TakenAt: now}
	if !b.lastTake.IsZero() {
		r.WindowSeconds = now.Sub(b.lastTake).Seconds()
	}
	b.lastTake = now
	r.Counters = make(map[string]uint64, len(b.counters))
	for name, c := range b.counters {
		v := c.Value()
		prev := b.prevCounters[name]
		if v < prev {
			prev = 0
		}
		r.Counters[name] = v - prev
		b.prevCounters[name] = v
	}
	r.Gauges = make(map[string]float64, len(b.gauges))
	for name, read := range b.gauges {
		r.Gauges[name] = read()
	}
	r.Histograms = make(map[string]telemetry.HistogramRollup, len(b.hists))
	for name, h := range b.hists {
		cur := h.Rollup()
		delta, err := cur.DeltaFrom(b.prevHists[name])
		if err != nil {
			delta = cur.Clone()
		}
		r.Histograms[name] = delta
		b.prevHists[name] = cur
	}
	r.TopK = make(map[string]telemetry.TopKRollup, len(b.topks))
	for name, t := range b.topks {
		r.TopK[name] = t.Snapshot()
	}
	return r
}

// deltaShard is the oracle aggregator's per-source row: cumulative
// sums of the deltas, latest gauges and TopKs.
type deltaShard struct {
	lastSeq    uint64
	lastSeen   time.Time
	lastWindow float64
	lastEvents uint64

	failedOver  bool
	rehomedTo   string
	recoveredAt time.Time

	counters map[string]uint64
	gauges   map[string]float64
	hists    map[string]telemetry.HistogramRollup
	topk     map[string]telemetry.TopKRollup
}

// deltaAggregator sums delta reports into per-shard totals and merges
// them across shards at read time.
type deltaAggregator struct {
	staleAfter time.Duration
	now        func() time.Time
	shards     map[string]*deltaShard

	reports, dupReports, mergeErrors uint64
}

func (f *deltaAggregator) shard(source string) *deltaShard {
	sh := f.shards[source]
	if sh == nil {
		sh = &deltaShard{
			counters: make(map[string]uint64),
			gauges:   make(map[string]float64),
			hists:    make(map[string]telemetry.HistogramRollup),
			topk:     make(map[string]telemetry.TopKRollup),
		}
		f.shards[source] = sh
	}
	return sh
}

func (f *deltaAggregator) report(r deltaReport) error {
	sh := f.shard(r.Source)
	if r.Seq <= sh.lastSeq {
		f.dupReports++
		return nil
	}
	f.reports++
	sh.lastSeq = r.Seq
	sh.lastSeen = f.now()
	sh.lastWindow = r.WindowSeconds
	sh.lastEvents = r.Counters[oEvents]
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
			f.mergeErrors++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sh.hists[name] = cur
	}
	return firstErr
}

func (f *deltaAggregator) setShardFailover(source, rehomedTo string, at time.Time) {
	sh := f.shard(source)
	sh.failedOver = true
	sh.rehomedTo = rehomedTo
	sh.recoveredAt = at
}

// fold adds a delta the oracle dropped back into source's totals.
func (f *deltaAggregator) fold(source string, counters map[string]uint64, mttr telemetry.HistogramRollup) error {
	sh := f.shard(source)
	for name, d := range counters {
		sh.counters[name] += d
	}
	cur := sh.hists[oMTTR]
	if err := cur.Merge(mttr); err != nil {
		return err
	}
	sh.hists[oMTTR] = cur
	return nil
}

func (f *deltaAggregator) view() FleetView {
	now := f.now()
	out := FleetView{TakenAt: now, StaleAfterSeconds: f.staleAfter.Seconds()}
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
			Healthy:     sh.gauges[oHealthy] != 0,
			Devices:     sh.gauges[oDevices],
			Events:      sh.counters[oEvents],
			Escalations: sh.counters[oEscalations],
			Violations:  sh.counters[oViolations],
			MTTR:        quantilesOf(sh.hists[oMTTR]),
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
			if sku, ok := strings.CutPrefix(g, oSKUPrefix); ok {
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
		if h, ok := sh.hists[oMTTR]; ok {
			_ = mergedMTTR.Merge(h)
		}
		if t, ok := sh.topk[oTopProducers]; ok {
			producers = append(producers, t)
		}
		if t, ok := sh.topk[oTopViolators]; ok {
			violators = append(violators, t)
		}
		if t, ok := sh.topk[oTopMTTR]; ok {
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

// twinSource is one reporting shard feeding both designs from the same
// live metrics: ShardStats for the hierarchy's fields, plus the
// violation and per-SKU fields the platform's self-report adds.
type twinSource struct {
	stats        *ShardStats
	old          *deltaBuilder
	violations   telemetry.Counter
	topViolators *telemetry.TopK
	skus         map[string]int
}

func newTwinSource(name string) *twinSource {
	s := &twinSource{
		stats:        NewShardStats(name),
		topViolators: telemetry.NewStandaloneTopK(FleetTopKCapacity),
		skus:         make(map[string]int),
	}
	st := s.stats
	b := newDeltaBuilder(name)
	b.counters[oEvents] = &st.events
	b.counters[oEscalations] = &st.escalations
	b.counters[oViolations] = &s.violations
	b.hists[oMTTR] = st.e2e
	b.topks[oTopProducers] = st.topProducers
	b.topks[oTopMTTR] = st.topMTTR
	b.topks[oTopViolators] = s.topViolators
	b.gauges[oDevices] = func() float64 { return float64(st.devices.Load()) }
	b.gauges[oHealthy] = func() float64 { return 1 }
	s.old = b
	return s
}

// take snapshots the source for both designs at the same instant.
func (s *twinSource) take(now time.Time) (ShardReport, deltaReport) {
	r := s.stats.Rollup(now)
	r.Violations = s.violations.Value()
	r.TopViolators = s.topViolators.Snapshot()
	r.SKUDevices = make(map[string]int, len(s.skus))
	for sku, n := range s.skus {
		r.SKUDevices[sku] = n
	}
	d := s.old.take(now)
	for sku, n := range s.skus {
		d.Gauges[oSKUPrefix+sku] = float64(n)
	}
	return r, d
}

// TestFleetReportMatchesDeltaOracle drives the typed cumulative plane
// and the delta oracle with random streams — events, escalations, E2E
// observations, SKU and device counts, violations, exact re-pushes,
// shards that go stale and report again, failovers, out-of-order pairs
// and mismatched bounds — and after every step requires the same fleet
// view and the same aggregator accounting.
func TestFleetReportMatchesDeltaOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runFleetOracle(t, seed, 600) })
	}
}

func runFleetOracle(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	const staleAfter = 10 * time.Second
	clock := time.Unix(1_000_000, 0)
	now := func() time.Time { return clock }
	agg := NewFleetAggregator(staleAfter)
	agg.now = now
	oracle := &deltaAggregator{staleAfter: staleAfter, now: now, shards: make(map[string]*deltaShard)}

	names := []string{"shard-000", "shard-001", "shard-002", "gateway"}
	sources := make(map[string]*twinSource, len(names))
	for _, n := range names {
		sources[n] = newTwinSource(n)
	}
	// last holds each source's latest delivered pair (for re-pushes);
	// accepted its latest report the new plane applied (for the truth
	// of an out-of-order step's rate).
	type pair struct {
		r ShardReport
		d deltaReport
	}
	last := make(map[string]pair)
	accepted := make(map[string]ShardReport)
	// pending is the MTTR the oracle lost to rejected histograms, folded
	// back once the new plane holds the shard's totals again.
	pending := make(map[string]telemetry.HistogramRollup)
	// rates holds the true event rate of a shard whose last accepted
	// report overtook an older one, until its next report lands: the
	// oracle's rate spans only the newer report's own window.
	rates := make(map[string]float64)
	// seen counts the steps that make the comparison worth having.
	seen := make(map[string]int)
	wrongBounds := telemetry.NewStandaloneHistogram([]float64{1, 2, 3})
	wrongBounds.Observe(0.5)
	devices := []string{"cam", "plug", "lock", "bulb", "oven", "hub", "tv", "fridge",
		"door", "vac", "speaker", "blind", "meter", "valve", "siren", "fan", "thermo", "lamp"}
	skus := []string{"cam-v1", "plug-v2", "lock-v1", "bulb-v3"}
	pick := func() (string, *twinSource) {
		n := names[rng.Intn(len(names))]
		return n, sources[n]
	}

	// deliver sends one pair to both aggregators and checks they agree
	// on whether it was accepted and whether it erred.
	deliver := func(step int, p pair) (acceptedNew bool) {
		t.Helper()
		prevSeq := accepted[p.r.Source].Seq
		sh := oracle.shards[p.r.Source]
		wasStale := sh != nil && sh.lastSeq > 0 && clock.Sub(sh.lastSeen) > staleAfter
		errNew := agg.Report(p.r)
		errOld := oracle.report(p.d)
		if (errNew == nil) != (errOld == nil) {
			t.Fatalf("step %d: report errors differ: new %v, oracle %v", step, errNew, errOld)
		}
		if p.r.Seq <= prevSeq {
			seen["dropped"]++
			return false
		}
		if wasStale {
			seen["back from stale"]++
		}
		accepted[p.r.Source] = p.r
		delete(rates, p.r.Source)
		if errNew == nil {
			if lost, ok := pending[p.r.Source]; ok {
				if err := oracle.fold(p.r.Source, nil, lost); err != nil {
					t.Fatalf("step %d: fold: %v", step, err)
				}
				delete(pending, p.r.Source)
			}
		}
		return true
	}

	for step := 0; step < steps; step++ {
		clock = clock.Add(time.Duration(50+rng.Intn(950)) * time.Millisecond)
		name, s := pick()
		dev := devices[rng.Intn(len(devices))]
		switch op := rng.Intn(14); op {
		case 0, 1:
			for k := rng.Intn(40); k > 0; k-- {
				s.stats.RecordEvent(devices[rng.Intn(len(devices))])
			}
		case 2:
			s.stats.RecordEscalation()
		case 3:
			for k := 1 + rng.Intn(5); k > 0; k-- {
				// 1µs .. ~30s: every bucket, the +Inf one included.
				s.stats.ObserveE2E(devices[rng.Intn(len(devices))], 1e-6*float64(int64(1)<<rng.Intn(25)))
			}
		case 4:
			s.skus[skus[rng.Intn(len(skus))]] = rng.Intn(50)
		case 5:
			s.violations.Inc()
			s.topViolators.Inc(dev)
		case 6:
			s.stats.SetDevices(rng.Intn(100))
		case 7, 8:
			// Flush: one source, or all of them as the plane does.
			flush := []string{name}
			if op == 8 {
				flush = names
			}
			for _, n := range flush {
				r, d := sources[n].take(clock)
				p := pair{r, d}
				deliver(step, p)
				last[n] = p
			}
		case 9:
			if p, ok := last[name]; ok {
				deliver(step, p) // a retried push
			}
		case 10:
			// A quiet spell past the staleness deadline; some shards
			// report again afterwards, some stay stale.
			clock = clock.Add(staleAfter + time.Duration(rng.Intn(5000))*time.Millisecond)
		case 11:
			target := name
			if rng.Intn(3) == 0 {
				target = fmt.Sprintf("shard-dead-%d", rng.Intn(2)) // never reported
			}
			seen["failover"]++
			agg.SetShardFailover(target, "shard-000", clock)
			oracle.setShardFailover(target, "shard-000", clock)
		case 12:
			// Mismatched bounds, only once the shard has MTTR bounds on
			// record: both designs reject the histogram and keep the
			// rest of the report.
			if accepted[name].Seq == 0 {
				continue
			}
			r, d := s.take(clock)
			lost := d.Histograms[oMTTR]
			r.MTTR = wrongBounds.Rollup()
			d.Histograms[oMTTR] = wrongBounds.Rollup()
			p := pair{r, d}
			if deliver(step, p) {
				cur := pending[name]
				if err := cur.Merge(lost); err != nil {
					t.Fatalf("step %d: pending: %v", step, err)
				}
				pending[name] = cur
			}
			last[name] = p
		case 13:
			// Out of order: two reports taken in turn, the newer landing
			// first. The new plane keeps the newer totals; the oracle
			// loses the older delta, folded back here.
			for k := rng.Intn(20); k > 0; k-- {
				s.stats.RecordEvent(dev)
			}
			r1, d1 := s.take(clock)
			for k := 1 + rng.Intn(20); k > 0; k-- {
				s.stats.RecordEvent(dev)
			}
			s.stats.ObserveE2E(dev, 1e-3)
			clock = clock.Add(time.Duration(100+rng.Intn(900)) * time.Millisecond)
			r2, d2 := s.take(clock)
			prev := accepted[name]
			deliver(step, pair{r2, d2})
			deliver(step, pair{r1, d1})
			if err := oracle.fold(name, d1.Counters, d1.Histograms[oMTTR]); err != nil {
				t.Fatalf("step %d: fold: %v", step, err)
			}
			rate := 0.0
			if window := r2.TakenAt.Sub(prev.TakenAt).Seconds(); prev.Seq > 0 && window > 0 {
				rate = float64(r2.Events-prev.Events) / window
			}
			rates[name] = rate
			seen["out of order"]++
			last[name] = pair{r2, d2}
		}

		got, want := agg.View(), oracle.view()
		if len(rates) > 0 {
			want.Fleet.EventsPerSec = 0
			for i := range want.Shards {
				sh := &want.Shards[i]
				if rate, ok := rates[sh.Source]; ok && !sh.Stale {
					sh.EventsPerSec = rate
				}
				want.Fleet.EventsPerSec += sh.EventsPerSec
			}
		}
		got.TakenAt, want.TakenAt = time.Time{}, time.Time{}
		alignMeans(&got, &want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: fleet views differ\nnew:    %+v\noracle: %+v", step, got, want)
		}
		reports, dups, mergeErrs := agg.Stats()
		if reports != oracle.reports || dups != oracle.dupReports || mergeErrs != oracle.mergeErrors {
			t.Fatalf("step %d: stats differ: new %d/%d/%d, oracle %d/%d/%d", step,
				reports, dups, mergeErrs, oracle.reports, oracle.dupReports, oracle.mergeErrors)
		}
	}
	_, _, mergeErrs := agg.Stats()
	seen["mismatched bounds"] = int(mergeErrs)
	for _, kind := range []string{"dropped", "back from stale", "out of order", "failover", "mismatched bounds"} {
		if seen[kind] == 0 {
			t.Errorf("the stream made no %s step", kind)
		}
	}
}

// alignMeans copies got's MTTR means into want where they agree to
// 1e-9. The oracle's histogram sum is a sum of window differences, so
// its mean carries float rounding the live cumulative sum does not.
func alignMeans(got, want *FleetView) {
	align := func(g, w *QuantilesJSON) {
		if math.Abs(g.Mean-w.Mean) <= 1e-9*math.Max(1, math.Abs(w.Mean)) {
			w.Mean = g.Mean
		}
	}
	align(&got.Fleet.MTTR, &want.Fleet.MTTR)
	for i := range want.Shards {
		if i < len(got.Shards) {
			align(&got.Shards[i].MTTR, &want.Shards[i].MTTR)
		}
	}
}
