package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"iotsec/internal/controller"
)

// RunAblationConsistency (A6) quantifies §5.1's consistency argument:
// the Figure 5 gate ("allow ON only when someone is home") decided
// against a weakly consistent replica admits unsafe actions whenever
// occupancy changed within the replication lag; the strongly
// consistent controller.View never does.
//
// The simulation is deterministic (logical time): occupancy toggles
// at the given mean interval, gate decisions arrive at random times,
// and each decision reads both sides after every flip up to its own
// time has been committed to the view and offered to the replica, then
// is scored against the ground truth. "Unsafe allow" = the gate permits
// ON while the home is actually empty.
func RunAblationConsistency(seed int64) *Table {
	t := &Table{
		ID:      "A6",
		Title:   "Gate decisions on weakly vs strongly consistent state",
		Columns: []string{"Occupancy change interval", "Replication lag", "Unsafe allows (weak)", "Unsafe allows (strong)"},
	}
	rng := rand.New(rand.NewSource(seed))

	type scenario struct {
		interval time.Duration
		lag      time.Duration
	}
	scenarios := []scenario{
		{10 * time.Second, 100 * time.Millisecond},
		{10 * time.Second, 2 * time.Second},
		{2 * time.Second, 100 * time.Millisecond},
		{2 * time.Second, 2 * time.Second},
	}

	const decisions = 2000
	for _, sc := range scenarios {
		view := controller.NewView()
		replica := controller.NewReplica(sc.lag)

		base := time.Unix(0, 0)
		horizon := base.Add(time.Duration(decisions) * sc.interval / 4)

		// The occupancy timeline: home at base, then toggling.
		type flip struct {
			at    time.Time
			value string
		}
		timeline := []flip{{base, "home"}}
		cur := base
		occupied := true
		for cur.Before(horizon) {
			// Exponential-ish jitter around the mean interval.
			step := time.Duration(float64(sc.interval) * (0.5 + rng.Float64()))
			cur = cur.Add(step)
			occupied = !occupied
			if occupied {
				timeline = append(timeline, flip{cur, "home"})
			} else {
				timeline = append(timeline, flip{cur, "away"})
			}
		}

		// Decision times, ascending (AdvanceTo is monotonic).
		when := make([]time.Time, decisions)
		for i := range when {
			when[i] = base.Add(time.Duration(rng.Int63n(int64(horizon.Sub(base)))))
		}
		sortTimes(when)

		ctx := context.Background()
		unsafeWeak, unsafeStrong := 0, 0
		truth, next := "home", 0
		for _, at := range when {
			for ; next < len(timeline) && !timeline[next].at.After(at); next++ {
				f := timeline[next]
				truth = f.value
				view.SetEnv(ctx, "occupancy", f.value, "occupancy sensor")
				replica.Offer(controller.Update{Key: "occupancy", Value: f.value, Version: view.Version()}, f.at)
			}

			// Weak: the replica's view at decision time.
			replica.AdvanceTo(at)
			weakView, _, ok := replica.Get("occupancy")
			if !ok {
				weakView = "home"
			}
			if weakView == "home" && truth == "away" {
				unsafeWeak++
			}
			// Strong: the gate reads the view synchronously; every
			// commit up to now is visible, in commit order.
			if view.Env("occupancy") == "home" && truth == "away" {
				unsafeStrong++
			}
		}
		t.AddRow(sc.interval, sc.lag,
			fmt.Sprintf("%d/%d (%.1f%%)", unsafeWeak, decisions, 100*float64(unsafeWeak)/decisions),
			fmt.Sprintf("%d/%d", unsafeStrong, decisions))
	}
	t.Note("unsafe allow = gate permits oven ON while the home is actually empty")
	t.Note("weak-consistency exposure grows with lag/interval: the paper's case for strong consistency on critical state")
	return t
}

// sortTimes sorts in place.
func sortTimes(ts []time.Time) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
}
