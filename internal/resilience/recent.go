package resilience

// Recent is a bounded map that remembers its most recent insertions:
// once capacity keys have been inserted, each new key forgets the
// oldest one (drop-oldest, reported to the caller so it can be
// counted). It is for tables whose size would otherwise be rate ×
// history — one entry per request, kept "for a while" — where only the
// recent ones can still matter.
//
// Insertion order lives in a Ring of (key, sequence) stamps. Delete
// removes the key and leaves its stamp behind; a stamp whose sequence
// no longer matches the key's is skipped when it reaches the front. The
// ring therefore bounds stamps, not live keys: behind a long-lived
// oldest key, the stamps of keys deleted since still take up room, and
// that key is forgotten after capacity later insertions even if most
// of them are already gone. Callers for which that matters re-insert on
// the key's next use.
//
// The ring is allocated on the first Put, so a table that never holds
// anything costs nothing. Not safe for concurrent use: callers keep a
// Recent under the lock that guards the rest of their state.
type Recent[K comparable, V any] struct {
	capacity int
	order    *Ring[stamp[K]]
	live     map[K]stamped[V]
	seq      uint64
}

type stamp[K comparable] struct {
	key K
	seq uint64
}

type stamped[V any] struct {
	v   V
	seq uint64
}

// NewRecent builds a map remembering up to capacity keys (values < 1
// default to 1024).
func NewRecent[K comparable, V any](capacity int) *Recent[K, V] {
	if capacity < 1 {
		capacity = 1024
	}
	return &Recent[K, V]{capacity: capacity}
}

// Get looks a key up.
func (r *Recent[K, V]) Get(k K) (V, bool) {
	e, ok := r.live[k]
	return e.v, ok
}

// Put stores v under k. A key already present keeps its age and only
// takes the new value. A new key is the youngest; if the map was full
// the oldest stamp goes, and evictedOldest reports whether a key that
// was still live went with it.
func (r *Recent[K, V]) Put(k K, v V) (evictedOldest bool) {
	if e, ok := r.live[k]; ok {
		e.v = v
		r.live[k] = e
		return false
	}
	if r.order == nil {
		r.order = NewRing[stamp[K]](r.capacity)
		r.live = make(map[K]stamped[V])
	}
	if r.order.Len() == r.capacity {
		s, _ := r.order.Pop()
		if r.live[s.key].seq == s.seq {
			delete(r.live, s.key)
			evictedOldest = true
		}
	}
	r.seq++ // from 1: the zero stamped value of an absent key matches no stamp
	r.live[k] = stamped[V]{v: v, seq: r.seq}
	r.order.Push(stamp[K]{key: k, seq: r.seq})
	return evictedOldest
}

// Delete forgets a key.
func (r *Recent[K, V]) Delete(k K) {
	if _, ok := r.live[k]; !ok {
		return
	}
	delete(r.live, k)
	r.shed()
}

// Oldest returns the oldest key still present.
func (r *Recent[K, V]) Oldest() (k K, v V, ok bool) {
	s, ok := r.shed()
	if !ok {
		return k, v, false
	}
	return s.key, r.live[s.key].v, true
}

// shed drops the stale stamps at the front of the ring and returns the
// first live one.
func (r *Recent[K, V]) shed() (s stamp[K], ok bool) {
	if r.order == nil {
		return s, false
	}
	for {
		s, ok = r.order.Peek()
		if !ok || r.live[s.key].seq == s.seq {
			return s, ok
		}
		r.order.Pop()
	}
}

// Len reports how many keys are present.
func (r *Recent[K, V]) Len() int { return len(r.live) }
