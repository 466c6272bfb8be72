package controller

import (
	"testing"
	"time"
)

func TestReplicaLagVisibility(t *testing.T) {
	r := NewReplica(100 * time.Millisecond)
	base := time.Now()
	r.Offer(Update{Key: "occupancy", Value: "away", Version: 1}, base)

	// Before the lag elapses the update is invisible.
	r.AdvanceTo(base.Add(50 * time.Millisecond))
	if _, _, ok := r.Get("occupancy"); ok {
		t.Fatal("update visible before lag")
	}
	if len(r.pending) != 1 {
		t.Errorf("pending updates = %d, want 1", len(r.pending))
	}
	// After the lag it appears.
	r.AdvanceTo(base.Add(100 * time.Millisecond))
	v, ver, ok := r.Get("occupancy")
	if !ok || v != "away" || ver != 1 {
		t.Errorf("get = %q v%d %v", v, ver, ok)
	}
}

func TestReplicaVersionOrderingUnderReordering(t *testing.T) {
	r := NewReplica(10 * time.Millisecond)
	base := time.Now()
	// Offers arrive out of order (network reordering); the replica
	// must still end with the highest version.
	r.Offer(Update{Key: "k", Value: "new", Version: 5}, base)
	r.Offer(Update{Key: "k", Value: "old", Version: 3}, base)
	r.AdvanceTo(base.Add(time.Second))
	v, ver, _ := r.Get("k")
	if v != "new" || ver != 5 {
		t.Errorf("replica regressed: %q v%d", v, ver)
	}
	// A later-arriving stale version never overwrites.
	r.Offer(Update{Key: "k", Value: "ancient", Version: 2}, base)
	r.AdvanceTo(base.Add(2 * time.Second))
	if v, _, _ := r.Get("k"); v != "new" {
		t.Errorf("stale overwrite: %q", v)
	}
}

func TestReplicaInOrderOffersStayOrdered(t *testing.T) {
	// The common case: offers arrive in version order (store watch),
	// so AdvanceTo's dirty-flag sort never fires — results must be
	// identical to the always-sort behavior.
	r := NewReplica(10 * time.Millisecond)
	base := time.Now()
	for i := 1; i <= 100; i++ {
		r.Offer(Update{Key: "k", Value: "v" + string(rune('0'+i%10)), Version: uint64(i)}, base.Add(time.Duration(i)*time.Millisecond))
	}
	// Partial advance: only the first half is visible.
	r.AdvanceTo(base.Add(60 * time.Millisecond))
	_, ver, ok := r.Get("k")
	if !ok || ver != 50 {
		t.Fatalf("partial advance: v%d %v, want v50", ver, ok)
	}
	r.AdvanceTo(base.Add(time.Hour))
	_, ver, _ = r.Get("k")
	if ver != 100 {
		t.Fatalf("full advance: v%d, want v100", ver)
	}
	if len(r.pending) != 0 {
		t.Fatalf("pending updates = %d after full drain", len(r.pending))
	}
}

// BenchmarkReplicaAdvanceToPending10k is the satellite regression
// guard: AdvanceTo over 10^4 pending in-order updates must scan, not
// re-sort, the queue every tick.
func BenchmarkReplicaAdvanceToPending10k(b *testing.B) {
	r := NewReplica(time.Hour) // nothing becomes visible: steady 10k backlog
	base := time.Now()
	for i := 0; i < 10_000; i++ {
		r.Offer(Update{Key: "k", Value: "v", Version: uint64(i + 1)}, base.Add(time.Duration(i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.AdvanceTo(base)
	}
}
