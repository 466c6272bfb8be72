package telemetry

import (
	"math"
	"testing"
)

func rollupBounds() []float64 { return []float64{0.001, 0.01, 0.1, 1} }

// TestHistogramRollupMergeEmptyIntoPopulated covers both directions:
// merging an empty rollup into a populated one is a no-op, and merging
// a populated rollup into a zero-value target adopts its bounds and
// contents exactly.
func TestHistogramRollupMergeEmptyIntoPopulated(t *testing.T) {
	h := NewStandaloneHistogram(rollupBounds())
	for _, v := range []float64{0.0005, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	populated := h.Rollup()

	// Empty into populated: nothing changes.
	target := populated.Clone()
	empty := NewStandaloneHistogram(rollupBounds()).Rollup()
	if err := target.Merge(empty); err != nil {
		t.Fatalf("merge empty: %v", err)
	}
	if target.Count != populated.Count || target.Sum != populated.Sum {
		t.Fatalf("empty merge changed count/sum: %+v vs %+v", target, populated)
	}
	for i := range target.Buckets {
		if target.Buckets[i] != populated.Buckets[i] {
			t.Fatalf("bucket %d changed: %d vs %d", i, target.Buckets[i], populated.Buckets[i])
		}
	}

	// Populated into zero value: adopts bounds and contents.
	var zero HistogramRollup
	if err := zero.Merge(populated); err != nil {
		t.Fatalf("merge into zero: %v", err)
	}
	if zero.Count != populated.Count {
		t.Fatalf("zero-merge count = %d, want %d", zero.Count, populated.Count)
	}
	if !boundsEqual(zero.Bounds, populated.Bounds) {
		t.Fatalf("zero-merge bounds = %v, want %v", zero.Bounds, populated.Bounds)
	}
}

// TestHistogramRollupMergeBoundsMismatch: merging across different
// bucket layouts must error and must not touch the target.
func TestHistogramRollupMergeBoundsMismatch(t *testing.T) {
	a := NewStandaloneHistogram(rollupBounds())
	a.Observe(0.05)
	target := a.Rollup()
	before := target.Clone()

	b := NewStandaloneHistogram([]float64{0.002, 0.02, 0.2})
	b.Observe(0.05)
	if err := target.Merge(b.Rollup()); err == nil {
		t.Fatal("merge with mismatched bounds did not error")
	}
	if target.Count != before.Count {
		t.Fatalf("failed merge mutated target count: %d vs %d", target.Count, before.Count)
	}
	for i := range target.Buckets {
		if target.Buckets[i] != before.Buckets[i] {
			t.Fatalf("failed merge mutated bucket %d", i)
		}
	}

	// Malformed bucket slice lengths error too.
	bad := HistogramRollup{Bounds: rollupBounds(), Buckets: []uint64{1, 2}}
	if err := target.Merge(bad); err == nil {
		t.Fatal("merge with truncated buckets did not error")
	}
}

// TestHistogramMergeQuantileMatchesDirect: observing a stream sharded
// across several histograms then merging must yield the same quantile
// estimates as observing the whole stream into one histogram.
func TestHistogramMergeQuantileMatchesDirect(t *testing.T) {
	direct := NewStandaloneHistogram(rollupBounds())
	shards := make([]*Histogram, 4)
	for i := range shards {
		shards[i] = NewStandaloneHistogram(rollupBounds())
	}
	// Deterministic spread across all buckets, including +Inf.
	vals := []float64{0.0002, 0.0007, 0.004, 0.008, 0.03, 0.07, 0.3, 0.9, 1.5, 3}
	for i := 0; i < 1000; i++ {
		v := vals[i%len(vals)]
		direct.Observe(v)
		shards[i%len(shards)].Observe(v)
	}

	var merged HistogramRollup
	for _, s := range shards {
		if err := merged.Merge(s.Rollup()); err != nil {
			t.Fatalf("merge: %v", err)
		}
	}

	if merged.Count != direct.Count() {
		t.Fatalf("merged count = %d, direct = %d", merged.Count, direct.Count())
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		want := direct.Quantile(q)
		if got := merged.Quantile(q); math.Abs(got-want) > 1e-12 {
			t.Fatalf("q%.2f: merged %v, direct %v", q, got, want)
		}
	}
}

// TestHistogramRollupDeltaFrom: delta windows subtract cleanly,
// tolerate zero-value baselines, clamp on resets, and reject
// mismatched bounds.
func TestHistogramRollupDeltaFrom(t *testing.T) {
	h := NewStandaloneHistogram(rollupBounds())
	h.Observe(0.005)
	first := h.Rollup()

	d0, err := first.DeltaFrom(HistogramRollup{})
	if err != nil {
		t.Fatalf("delta from zero: %v", err)
	}
	if d0.Count != 1 {
		t.Fatalf("first delta count = %d", d0.Count)
	}

	h.Observe(0.05)
	h.Observe(0.5)
	second := h.Rollup()
	d1, err := second.DeltaFrom(first)
	if err != nil {
		t.Fatalf("delta: %v", err)
	}
	if d1.Count != 2 {
		t.Fatalf("window delta count = %d, want 2", d1.Count)
	}
	if d1.Buckets[0] != 0 || d1.Buckets[2] != 1 || d1.Buckets[3] != 1 {
		t.Fatalf("window delta buckets = %v", d1.Buckets)
	}

	// Reset source: current < prev clamps to current, never underflows.
	fresh := NewStandaloneHistogram(rollupBounds())
	fresh.Observe(0.005)
	dr, err := fresh.Rollup().DeltaFrom(second)
	if err != nil {
		t.Fatalf("reset delta: %v", err)
	}
	if dr.Count != 1 {
		t.Fatalf("reset delta count = %d, want 1", dr.Count)
	}

	other := NewStandaloneHistogram([]float64{1, 2, 3})
	if _, err := other.Rollup().DeltaFrom(first); err == nil {
		t.Fatal("delta across mismatched bounds did not error")
	}
}
