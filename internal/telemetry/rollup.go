package telemetry

import "fmt"

// HistogramRollup is a mergeable fixed-bucket histogram snapshot (or
// delta — the struct doesn't care, only the producer's bookkeeping
// does). Buckets holds per-bucket (non-cumulative) counts with
// len(Bounds)+1 entries, the last being the +Inf bucket.
type HistogramRollup struct {
	Bounds  []float64 `json:"bounds"`
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
	Buckets []uint64  `json:"buckets"`
}

// boundsEqual compares bucket bounds exactly. Merging histograms with
// different bucket layouts has no meaningful result, so equality is
// strict (no tolerance): rollup producers and consumers must share the
// bound constants.
func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Merge folds o into h bucket-wise. Both sides must declare identical
// bounds; a mismatch errors without touching h (never corrupt).
// Merging into a zero-value h adopts o's bounds.
func (h *HistogramRollup) Merge(o HistogramRollup) error {
	if len(h.Bounds) == 0 && h.Count == 0 && len(h.Buckets) == 0 {
		h.Bounds = append([]float64(nil), o.Bounds...)
		h.Buckets = make([]uint64, len(o.Bounds)+1)
	}
	if !boundsEqual(h.Bounds, o.Bounds) {
		return fmt.Errorf("telemetry: histogram merge: bounds mismatch (%v vs %v)", h.Bounds, o.Bounds)
	}
	if len(o.Buckets) != len(o.Bounds)+1 {
		return fmt.Errorf("telemetry: histogram merge: %d buckets for %d bounds", len(o.Buckets), len(o.Bounds))
	}
	if len(h.Buckets) != len(h.Bounds)+1 {
		return fmt.Errorf("telemetry: histogram merge: target has %d buckets for %d bounds", len(h.Buckets), len(h.Bounds))
	}
	for i := range o.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.Count += o.Count
	h.Sum += o.Sum
	return nil
}

// DeltaFrom returns h minus prev (both cumulative snapshots of the
// same series). Bounds must match; a zero-value prev yields h itself
// (first window). Counts that went backwards (reset source) clamp to
// the current snapshot rather than underflowing.
func (h HistogramRollup) DeltaFrom(prev HistogramRollup) (HistogramRollup, error) {
	if len(prev.Buckets) == 0 && prev.Count == 0 {
		return h.Clone(), nil
	}
	if !boundsEqual(h.Bounds, prev.Bounds) {
		return HistogramRollup{}, fmt.Errorf("telemetry: histogram delta: bounds mismatch (%v vs %v)", h.Bounds, prev.Bounds)
	}
	out := HistogramRollup{Bounds: append([]float64(nil), h.Bounds...), Buckets: make([]uint64, len(h.Buckets))}
	reset := h.Count < prev.Count
	for i := range h.Buckets {
		if reset || (i < len(prev.Buckets) && h.Buckets[i] < prev.Buckets[i]) {
			out.Buckets[i] = h.Buckets[i]
			continue
		}
		d := h.Buckets[i]
		if i < len(prev.Buckets) {
			d -= prev.Buckets[i]
		}
		out.Buckets[i] = d
	}
	if reset {
		out.Count, out.Sum = h.Count, h.Sum
	} else {
		out.Count = h.Count - prev.Count
		out.Sum = h.Sum - prev.Sum
	}
	return out, nil
}

// Clone deep-copies the rollup.
func (h HistogramRollup) Clone() HistogramRollup {
	return HistogramRollup{
		Bounds:  append([]float64(nil), h.Bounds...),
		Count:   h.Count,
		Sum:     h.Sum,
		Buckets: append([]uint64(nil), h.Buckets...),
	}
}

// Quantile estimates q in [0,1] over the rollup's buckets.
func (h HistogramRollup) Quantile(q float64) float64 {
	return QuantileFromBuckets(h.Bounds, h.Buckets, q)
}

// Mean reports Sum/Count (0 when empty).
func (h HistogramRollup) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}
