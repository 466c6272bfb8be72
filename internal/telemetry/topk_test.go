package telemetry

import (
	"fmt"
	"testing"
)

// TestTopKEvictionUnderChurn: with K=4 and a churning long tail, true
// heavy hitters must survive and reported counts must respect the
// space-saving bound (true ≤ reported ≤ true + Err).
func TestTopKEvictionUnderChurn(t *testing.T) {
	tk := NewStandaloneTopK(4)
	trueCounts := map[string]uint64{}
	offer := func(key string, n uint64) {
		tk.Offer(key, n)
		trueCounts[key] += n
	}

	// Two real heavy hitters interleaved with 200 one-shot keys.
	for i := 0; i < 200; i++ {
		offer("heavy-a", 5)
		offer("heavy-b", 3)
		offer(fmt.Sprintf("tail-%03d", i), 1)
	}

	if got := tk.Len(); got > 4 {
		t.Fatalf("TopK holds %d keys, capacity 4", got)
	}
	snap := tk.Snapshot()
	found := map[string]TopKEntry{}
	for _, e := range snap.Entries {
		found[e.Key] = e
	}
	for _, want := range []string{"heavy-a", "heavy-b"} {
		e, ok := found[want]
		if !ok {
			t.Fatalf("heavy hitter %s evicted; entries: %+v", want, snap.Entries)
		}
		if e.Count < trueCounts[want] {
			t.Fatalf("%s reported %d < true %d (space-saving never undercounts)", want, e.Count, trueCounts[want])
		}
		if e.Count-e.Err > trueCounts[want] {
			t.Fatalf("%s lower bound %d exceeds true %d", want, e.Count-e.Err, trueCounts[want])
		}
	}
	// Entries sorted by descending count, heavy-a first.
	if snap.Entries[0].Key != "heavy-a" {
		t.Fatalf("entries not sorted by count: %+v", snap.Entries)
	}
	if snap.Offers != tk.Offers() || snap.Offers == 0 {
		t.Fatalf("offers mismatch: snap %d, live %d", snap.Offers, tk.Offers())
	}
}

// TestTopKMerge: merging shard summaries sums per key, keeps top K of
// the union, and accumulates error bounds.
func TestTopKMerge(t *testing.T) {
	a := NewStandaloneTopK(4)
	b := NewStandaloneTopK(4)
	a.Offer("x", 10)
	a.Offer("y", 5)
	b.Offer("x", 7)
	b.Offer("z", 20)

	m := MergeTopK(2, a.Snapshot(), b.Snapshot())
	if len(m.Entries) != 2 {
		t.Fatalf("merged entries = %d, want 2", len(m.Entries))
	}
	if m.Entries[0].Key != "z" || m.Entries[0].Count != 20 {
		t.Fatalf("top entry = %+v, want z/20", m.Entries[0])
	}
	if m.Entries[1].Key != "x" || m.Entries[1].Count != 17 {
		t.Fatalf("second entry = %+v, want x/17", m.Entries[1])
	}
	if m.Offers != a.Offers()+b.Offers() {
		t.Fatalf("merged offers = %d, want %d", m.Offers, a.Offers()+b.Offers())
	}
}

// TestTopKRegistered: a registry-registered TopK scrapes as a bounded
// gauge family labeled by key.
func TestTopKRegistered(t *testing.T) {
	reg := NewRegistry()
	tk := reg.NewTopK("iotsec_test_top_talkers", "Top talkers.", 8)
	tk.Offer("dev-1", 3)
	tk.Offer("dev-2", 1)
	samples := tk.Samples()
	if len(samples) != 2 {
		t.Fatalf("samples = %d", len(samples))
	}
	if samples[0].Labels[0].Value != "dev-1" || samples[0].Value != 3 {
		t.Fatalf("first sample = %+v", samples[0])
	}
	// Re-registration under the same name returns the existing one.
	again := reg.NewTopK("iotsec_test_top_talkers", "Top talkers.", 8)
	if again != tk {
		t.Fatal("re-registration returned a different TopK")
	}
}
