package telemetry

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// maxBuckets bounds fixed-bucket histograms; shards inline the bucket
// array so shards never share cache lines through a common backing
// slice.
const maxBuckets = 32

// histShard is one writer shard: its own count/sum and an inline
// bucket array, padded so adjacent shards never share a cache line.
type histShard struct {
	count   atomic.Uint64
	sum     atomicFloat64
	buckets [maxBuckets]atomic.Uint64
	_       [64]byte // pad to keep the next shard off this line
}

// Histogram is a fixed-bucket histogram with per-shard atomics:
// Observe picks a shard from the caller's stack address (a cheap
// goroutine-stable hash), then does two atomic adds and one CAS-add —
// no locks, no allocation. Bounds are upper bounds in ascending order;
// a +Inf bucket is implicit.
type Histogram struct {
	meta
	bounds []float64
	shards []histShard
	mask   uint64
}

// LatencyBuckets covers 1µs .. ~16s in powers of 4 (seconds).
var LatencyBuckets = []float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1, 4, 16,
}

func newHistogram(m meta, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	if len(bounds) >= maxBuckets {
		panic(fmt.Sprintf("telemetry: %s: %d buckets exceeds max %d", m.name, len(bounds), maxBuckets-1))
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("telemetry: histogram bounds must ascend: " + m.name)
	}
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 16 {
		n <<= 1
	}
	return &Histogram{
		meta:   m,
		bounds: append([]float64(nil), bounds...),
		shards: make([]histShard, n),
		mask:   uint64(n - 1),
	}
}

// shardIndex hashes the caller's stack address: distinct goroutines
// run on distinct stacks, so concurrent writers spread across shards
// without any shared state.
func (h *Histogram) shardIndex() uint64 {
	var probe byte
	a := uint64(uintptr(unsafe.Pointer(&probe)))
	// splitmix-style finalizer over the page-granular stack address.
	a >>= 10
	a ^= a >> 33
	a *= 0xff51afd7ed558ccd
	a ^= a >> 33
	return a & h.mask
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	s := &h.shards[h.shardIndex()]
	s.count.Add(1)
	s.sum.Add(v)
	// Linear scan: bucket counts are small and the slice is hot.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	s.buckets[i].Add(1)
}

// snapshot folds the shards.
func (h *Histogram) snapshot() (count uint64, sum float64, buckets []uint64) {
	buckets = make([]uint64, len(h.bounds)+1)
	for i := range h.shards {
		s := &h.shards[i]
		count += s.count.Load()
		sum += s.sum.Load()
		for b := 0; b <= len(h.bounds); b++ {
			buckets[b] += s.buckets[b].Load()
		}
	}
	return count, sum, buckets
}

// Count reports total observations.
func (h *Histogram) Count() uint64 {
	c, _, _ := h.snapshot()
	return c
}

// Sum reports the sum of observed values.
func (h *Histogram) Sum() float64 {
	_, s, _ := h.snapshot()
	return s
}

// Quantile estimates q in [0,1] by linear interpolation within the
// winning bucket (the usual Prometheus-style estimate).
func (h *Histogram) Quantile(q float64) float64 {
	_, _, buckets := h.snapshot()
	return QuantileFromBuckets(h.bounds, buckets, q)
}

// Bounds returns the histogram's upper bucket bounds (ascending; the
// +Inf bucket is implicit). The returned slice is a copy.
func (h *Histogram) Bounds() []float64 {
	return append([]float64(nil), h.bounds...)
}

// Snapshot folds the shards into (count, sum, per-bucket counts). The
// buckets slice has len(Bounds())+1 entries — the last is the +Inf
// bucket — and holds per-bucket (non-cumulative) counts. Safe to call
// concurrently with writers; the fold is not atomic across shards, so
// concurrent observations may be partially visible (fine for scrapes
// and windowed deltas).
func (h *Histogram) Snapshot() (count uint64, sum float64, buckets []uint64) {
	return h.snapshot()
}

// Rollup snapshots the histogram in the mergeable rollup form.
func (h *Histogram) Rollup() HistogramRollup {
	count, sum, buckets := h.snapshot()
	return HistogramRollup{
		Bounds:  append([]float64(nil), h.bounds...),
		Count:   count,
		Sum:     sum,
		Buckets: buckets,
	}
}

// NewStandaloneHistogram builds an unregistered histogram (per-shard
// stats that export through rollups rather than registry scrapes).
// nil bounds use LatencyBuckets, like registered histograms.
func NewStandaloneHistogram(bounds []float64) *Histogram {
	return newHistogram(meta{}, bounds)
}

// QuantileFromBuckets estimates q in [0,1] from per-bucket
// (non-cumulative) counts against the given upper bounds, with linear
// interpolation inside the winning bucket. buckets may have
// len(bounds) or len(bounds)+1 entries (the extra one is +Inf); the
// +Inf bucket reports the last finite bound, since nothing better is
// known. Used by Histogram.Quantile, by the SLO watchdog over windowed
// deltas, and by mboxctl when re-deriving quantiles from a scraped
// snapshot.
func QuantileFromBuckets(bounds []float64, buckets []uint64, q float64) float64 {
	count := uint64(0)
	for _, b := range buckets {
		count += b
	}
	if count == 0 {
		return 0
	}
	rank := q * float64(count)
	cum := uint64(0)
	lower := 0.0
	for i, b := range buckets {
		prev := cum
		cum += b
		if float64(cum) >= rank {
			upper := lower
			if i < len(bounds) {
				upper = bounds[i]
			} else if len(bounds) > 0 {
				// +Inf bucket: report the last finite bound.
				return bounds[len(bounds)-1]
			}
			if b == 0 {
				return upper
			}
			frac := (rank - float64(prev)) / float64(b)
			return lower + (upper-lower)*frac
		}
		if i < len(bounds) {
			lower = bounds[i]
		}
	}
	if len(bounds) > 0 {
		return bounds[len(bounds)-1]
	}
	return 0
}

// MetricKind implements Metric.
func (h *Histogram) MetricKind() Kind { return KindHistogram }

// Samples implements Metric: cumulative _bucket series, then _sum and
// _count.
func (h *Histogram) Samples() []Sample {
	return h.samplesWithLabels(nil)
}

func (h *Histogram) samplesWithLabels(base Labels) []Sample {
	count, sum, buckets := h.snapshot()
	out := make([]Sample, 0, len(buckets)+2)
	cum := uint64(0)
	for i, b := range buckets {
		cum += b
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		ls := make(Labels, 0, len(base)+1)
		ls = append(ls, base...)
		ls = append(ls, Label{Key: "le", Value: le})
		out = append(out, Sample{Suffix: "_bucket", Labels: ls, Value: float64(cum)})
	}
	out = append(out,
		Sample{Suffix: "_sum", Labels: base, Value: sum},
		Sample{Suffix: "_count", Labels: base, Value: float64(count)})
	return out
}

// HistogramVec is a family of histograms keyed by label values
// (copy-on-write index; resolve children once on hot paths).
type HistogramVec struct {
	meta
	keys   []string
	bounds []float64
	idx    atomic.Pointer[map[string]*Histogram]
	mu     sync.Mutex
}

// With returns (creating if needed) the child histogram.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	key := joinLabelValues(labelValues)
	if h, ok := (*v.idx.Load())[key]; ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	old := *v.idx.Load()
	if h, ok := old[key]; ok {
		return h
	}
	nw := make(map[string]*Histogram, len(old)+1)
	for k, h := range old {
		nw[k] = h
	}
	h := newHistogram(meta{}, v.bounds)
	nw[key] = h
	v.idx.Store(&nw)
	return h
}

// MetricKind implements Metric.
func (v *HistogramVec) MetricKind() Kind { return KindHistogram }

// Samples implements Metric.
func (v *HistogramVec) Samples() []Sample {
	idx := *v.idx.Load()
	var out []Sample
	for key, h := range idx {
		out = append(out, h.samplesWithLabels(splitLabels(v.keys, key))...)
	}
	return out
}

func formatFloat(f float64) string { return fmt.Sprintf("%g", f) }
