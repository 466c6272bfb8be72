package controller

import (
	"sort"
	"sync"
	"time"
)

// Update is one committed write as a follower sees it.
type Update struct {
	Key     string
	Value   string
	Version uint64
}

// Replica is a weakly consistent follower of a View: updates become
// visible only after a replication lag, the way traditional SDN state
// distribution works (§5.1: "traditional mechanisms for scaling SDN
// typically exploit weak consistency semantics"). IoTSec's critical
// security state cannot ride on this — the replica exists so the
// ablation can measure exactly why.
//
// Time is injected explicitly (Offer records the commit time,
// AdvanceTo applies everything older than now-lag), so experiments
// are deterministic.
type Replica struct {
	// Lag is the replication delay.
	Lag time.Duration

	mu      sync.Mutex
	pending []timedUpdate
	// dirty marks pending as out of version order. Offers almost always
	// arrive in order (a view commits sequentially), so AdvanceTo only
	// pays the sort after an actual inversion instead of re-sorting the
	// whole backlog every tick.
	dirty  bool
	values map[string]Update
}

type timedUpdate struct {
	u  Update
	at time.Time
}

// NewReplica builds a follower with the given lag.
func NewReplica(lag time.Duration) *Replica {
	return &Replica{Lag: lag, values: make(map[string]Update)}
}

// Offer records one committed update with its commit time.
func (r *Replica) Offer(u Update, committedAt time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.pending); n > 0 && r.pending[n-1].u.Version > u.Version {
		r.dirty = true
	}
	r.pending = append(r.pending, timedUpdate{u: u, at: committedAt})
	mReplicaPending.Inc()
}

// AdvanceTo applies every pending update whose commit time is at
// least Lag in the past, in version order.
func (r *Replica) AdvanceTo(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dirty {
		sort.SliceStable(r.pending, func(i, j int) bool {
			return r.pending[i].u.Version < r.pending[j].u.Version
		})
		r.dirty = false
	}
	kept := r.pending[:0]
	for _, tu := range r.pending {
		if age := now.Sub(tu.at); age >= r.Lag {
			if cur, ok := r.values[tu.u.Key]; !ok || tu.u.Version > cur.Version {
				r.values[tu.u.Key] = tu.u
			}
			mReplicaLagSeconds.Observe(age.Seconds())
			mReplicaPending.Dec()
		} else {
			kept = append(kept, tu)
		}
	}
	r.pending = kept
}

// Get reads the replica's (possibly stale) view.
func (r *Replica) Get(key string) (value string, version uint64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, ok := r.values[key]
	return u.Value, u.Version, ok
}

// Staleness reports how many updates are known but not yet visible.
func (r *Replica) Staleness() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}
