package telemetry

import (
	"sort"
	"sync"
)

// TopK is a bounded-cardinality heavy-hitter summary implementing the
// space-saving algorithm (Metwally et al.): it tracks at most K keys
// with guaranteed error bounds instead of one series per key, so
// per-device dimensions (top violators, top event producers) can ride
// a fleet rollup without a label explosion. When a new key arrives at
// capacity, the current minimum-count entry is evicted and the
// newcomer inherits its count as an overestimation bound (Err) —
// guaranteeing any key with true count > min is present, and every
// reported Count overestimates the true count by at most Err.
//
// Offer takes a mutex: TopK sits on shard-local control paths (one
// lock per device event, uncontended across shards), not the per-
// packet data path. The entries live in one slice of at most K, found
// by a linear scan: K is small by design (the cardinality budget,
// default 16), and a fleet holds three summaries per shard, so their
// footprint matters more than a map's constant-time probe.
type TopK struct {
	meta
	k int

	mu      sync.Mutex
	entries []TopKEntry // allocated at capacity k on first Offer
	offers  uint64
}

// DefaultTopKCapacity is the cardinality budget used when a
// non-positive K is requested.
const DefaultTopKCapacity = 16

// NewStandaloneTopK builds an unregistered summary with capacity k
// (for per-shard stats that export via rollups, not scrapes).
func NewStandaloneTopK(k int) *TopK {
	if k <= 0 {
		k = DefaultTopKCapacity
	}
	return &TopK{k: k}
}

// NewTopK registers a TopK on Default.
func NewTopK(name, help string, k int) *TopK {
	return Default.NewTopK(name, help, k)
}

// NewTopK registers a TopK on r. It exposes as a gauge family with a
// "key" label, at most K series.
func (r *Registry) NewTopK(name, help string, k int) *TopK {
	t := NewStandaloneTopK(k)
	t.meta = meta{name, help}
	return r.Register(t).(*TopK)
}

// Offer records n occurrences of key.
func (t *TopK) Offer(key string, n uint64) {
	if n == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.offers += n
	for i := range t.entries {
		if t.entries[i].Key == key {
			t.entries[i].Count += n
			return
		}
	}
	if len(t.entries) < t.k {
		if t.entries == nil {
			t.entries = make([]TopKEntry, 0, t.k)
		}
		t.entries = append(t.entries, TopKEntry{Key: key, Count: n})
		return
	}
	// Space-saving eviction: replace the minimum, inheriting its count
	// as the newcomer's overestimation bound.
	m := 0
	for i, e := range t.entries {
		if e.Count < t.entries[m].Count || (e.Count == t.entries[m].Count && e.Key < t.entries[m].Key) {
			m = i
		}
	}
	minCount := t.entries[m].Count
	t.entries[m] = TopKEntry{Key: key, Count: minCount + n, Err: minCount}
}

// Inc records one occurrence of key.
func (t *TopK) Inc(key string) { t.Offer(key, 1) }

// Len reports the tracked key count (≤ K).
func (t *TopK) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Offers reports the total weight offered (exact, unlike per-key
// counts at capacity).
func (t *TopK) Offers() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.offers
}

// Reset forgets everything.
func (t *TopK) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries = nil
	t.offers = 0
}

// Snapshot exports the summary sorted by descending count (key
// ascending on ties, so output is deterministic).
func (t *TopK) Snapshot() TopKRollup {
	t.mu.Lock()
	out := TopKRollup{K: t.k, Offers: t.offers, Entries: append(make([]TopKEntry, 0, len(t.entries)), t.entries...)}
	t.mu.Unlock()
	sortTopK(out.Entries)
	return out
}

// MetricKind implements Metric (exposes as a bounded gauge family).
func (t *TopK) MetricKind() Kind { return KindGauge }

// Samples implements Metric: one {key=...} series per tracked entry.
func (t *TopK) Samples() []Sample {
	snap := t.Snapshot()
	out := make([]Sample, 0, len(snap.Entries))
	for _, e := range snap.Entries {
		out = append(out, Sample{
			Labels: Labels{{Key: "key", Value: e.Key}},
			Value:  float64(e.Count),
		})
	}
	return out
}

// TopKEntry is one heavy hitter: Count overestimates the true count
// by at most Err.
type TopKEntry struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err,omitempty"`
}

// TopKRollup is a mergeable heavy-hitter snapshot.
type TopKRollup struct {
	K       int         `json:"k"`
	Offers  uint64      `json:"offers"`
	Entries []TopKEntry `json:"entries"`
}

// MergeTopK merges space-saving summaries from independent sources
// into one of capacity k: counts (and error bounds) sum per key, then
// the top k by merged count survive. The result keeps the space-saving
// guarantee relative to the union stream: a surviving Count
// overestimates the true total by at most its merged Err.
func MergeTopK(k int, ins ...TopKRollup) TopKRollup {
	if k <= 0 {
		k = DefaultTopKCapacity
	}
	at := make(map[string]int) // key → position in out.Entries
	out := TopKRollup{K: k}
	for _, in := range ins {
		out.Offers += in.Offers
		for _, e := range in.Entries {
			i, ok := at[e.Key]
			if !ok {
				i = len(out.Entries)
				at[e.Key] = i
				out.Entries = append(out.Entries, TopKEntry{Key: e.Key})
			}
			out.Entries[i].Count += e.Count
			out.Entries[i].Err += e.Err
		}
	}
	if out.Entries == nil {
		out.Entries = []TopKEntry{}
	}
	sortTopK(out.Entries)
	if len(out.Entries) > k {
		out.Entries = out.Entries[:k]
	}
	return out
}

func sortTopK(es []TopKEntry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Count != es[j].Count {
			return es[i].Count > es[j].Count
		}
		return es[i].Key < es[j].Key
	})
}

var _ Metric = (*TopK)(nil)
