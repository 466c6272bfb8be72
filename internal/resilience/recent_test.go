package resilience

import (
	"math/rand"
	"testing"
)

func TestRingPeekPop(t *testing.T) {
	r := NewRing[int](3)
	if _, ok := r.Peek(); ok {
		t.Fatal("Peek on an empty ring reported an element")
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop on an empty ring reported an element")
	}
	for i := 1; i <= 4; i++ { // 1 is evicted: the ring wraps
		r.Push(i)
	}
	if v, ok := r.Peek(); !ok || v != 2 {
		t.Fatalf("Peek = %d, %v, want 2 (oldest)", v, ok)
	}
	for want := 2; want <= 4; want++ {
		if v, ok := r.Pop(); !ok || v != want {
			t.Fatalf("Pop = %d, %v, want %d", v, ok, want)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len after popping everything = %d", r.Len())
	}
	r.Push(9)
	if got := r.Drain(); len(got) != 1 || got[0] != 9 {
		t.Fatalf("Drain after Pop = %v, want [9]", got)
	}
}

func TestRecentDropsOldestInsertion(t *testing.T) {
	r := NewRecent[string, int](3)
	if _, _, ok := r.Oldest(); ok {
		t.Fatal("Oldest on an empty map reported a key")
	}
	r.Delete("absent") // nothing allocated yet, nothing to do
	for i, k := range []string{"a", "b", "c"} {
		if r.Put(k, i) {
			t.Fatalf("Put(%s) evicted before capacity", k)
		}
	}
	if r.Put("a", 10) {
		t.Fatal("updating a present key evicted")
	}
	if k, v, ok := r.Oldest(); !ok || k != "a" || v != 10 {
		t.Fatalf("Oldest = %s, %d, %v, want a, 10: an update keeps the key's age", k, v, ok)
	}
	if !r.Put("d", 3) {
		t.Fatal("Put into a full map did not report the eviction")
	}
	if _, ok := r.Get("a"); ok {
		t.Fatal("the oldest key survived the eviction")
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
}

func TestRecentDeleteLeavesNoGhost(t *testing.T) {
	r := NewRecent[string, int](3)
	r.Put("a", 1)
	r.Put("b", 2)
	r.Delete("b")
	r.Put("b", 3) // same key again: the first b's stamp must not speak for it
	r.Put("c", 4)
	// a, b (stale) and b filled the ring of three stamps, so c pushed a
	// out although only two keys were live.
	if _, ok := r.Get("a"); ok {
		t.Fatal("a outlived three later insertions in a map of three")
	}
	// The stale stamp reaching the front is dropped, not mistaken for
	// the live b.
	if r.Put("d", 5) {
		t.Fatal("dropping a stale stamp was reported as an eviction")
	}
	if v, ok := r.Get("b"); !ok || v != 3 {
		t.Fatalf("Get(b) = %d, %v, want the re-inserted 3", v, ok)
	}
	if k, _, ok := r.Oldest(); !ok || k != "b" {
		t.Fatalf("Oldest = %s, %v, want b", k, ok)
	}
}

// TestRecentAgainstModel drives random puts and deletes against a
// plain slice-ordered model that tracks live keys and stamps the way
// the doc comment describes.
func TestRecentAgainstModel(t *testing.T) {
	const capacity, keys = 8, 20
	rng := rand.New(rand.NewSource(1))
	r := NewRecent[int, int](capacity)
	type ent struct {
		key  int
		live bool
	}
	var order []ent // stamps, oldest first
	vals := map[int]int{}
	for step := 0; step < 20000; step++ {
		k := rng.Intn(keys)
		if rng.Intn(3) == 0 {
			r.Delete(k)
			if _, ok := vals[k]; ok {
				delete(vals, k)
				for i := range order {
					if order[i].key == k {
						order[i].live = false
					}
				}
			}
		} else {
			wantEvict := false
			if _, ok := vals[k]; !ok {
				if len(order) == capacity {
					if order[0].live {
						delete(vals, order[0].key)
						wantEvict = true
					}
					order = order[1:]
				}
				order = append(order, ent{k, true})
			}
			vals[k] = step
			if got := r.Put(k, step); got != wantEvict {
				t.Fatalf("step %d: Put(%d) evicted=%v, model says %v", step, k, got, wantEvict)
			}
		}
		if r.Len() != len(vals) {
			t.Fatalf("step %d: Len = %d, model holds %d", step, r.Len(), len(vals))
		}
		if r.Len() > capacity {
			t.Fatalf("step %d: %d keys in a map of %d", step, r.Len(), capacity)
		}
		for key, want := range vals {
			if got, ok := r.Get(key); !ok || got != want {
				t.Fatalf("step %d: Get(%d) = %d, %v, want %d", step, key, got, ok, want)
			}
		}
		// Oldest (called here every step) and Delete shed the stale
		// stamps at the front.
		for len(order) > 0 && !order[0].live {
			order = order[1:]
		}
		gotK, _, ok := r.Oldest()
		if ok != (len(order) > 0) || (ok && gotK != order[0].key) {
			t.Fatalf("step %d: Oldest = %d, %v, model order %+v", step, gotK, ok, order)
		}
	}
}
