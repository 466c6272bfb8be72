package controller

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"testing"

	"iotsec/internal/policy"
)

// TestOrdinalPostureCacheMatchesNameOracle: a reconciler keeping the
// last pushed posture by device ordinal pushes exactly the deltas a
// cache keyed by device name pushes, over random rule sets on full and
// restricted domains, random view changes, devices declared after the
// reconciler was built, and checkpoints seeded into a fresh reconciler
// (intact, with an entry dropped, with an entry gone stale, and with a
// device the domain does not declare).
func TestOrdinalPostureCacheMatchesNameOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	postures := []policy.Posture{
		{},
		{BlockCommands: []string{"ON"}},
		{Isolate: true},
		{RateLimit: 5},
	}
	ctxs := []policy.SecurityContext{policy.ContextNormal, policy.ContextSuspicious}
	vars := []string{"x", "y", "z"}
	ctx := context.Background()
	for trial := 0; trial < 60; trial++ {
		d := policy.NewDomain()
		for _, v := range vars {
			d.AddEnvVar(v, "0", "1", "2")
		}
		// Declared in shuffled order, so an ordinal is not a sorted
		// position; some declared twice.
		var devs []string
		for _, i := range rng.Perm(3 + rng.Intn(10)) {
			dev := fmt.Sprintf("d%02d", i)
			d.AddDevice(dev, ctxs...)
			devs = append(devs, dev)
		}
		for i := rng.Intn(3); i > 0; i-- {
			d.AddDevice(devs[rng.Intn(len(devs))], ctxs...)
		}
		rule := func(i int, dev string) policy.Rule {
			cond := policy.EnvIs(vars[rng.Intn(len(vars))], strconv.Itoa(rng.Intn(3)))
			if rng.Intn(3) == 0 {
				cond = policy.DeviceIs(devs[rng.Intn(len(devs))], policy.ContextSuspicious)
			}
			return policy.Rule{
				Name: fmt.Sprintf("r%d", i), Conditions: []policy.Condition{cond},
				Device: dev, Posture: postures[rng.Intn(len(postures))], Priority: rng.Intn(2),
			}
		}
		var rules []policy.Rule
		for i := 0; i < 3*len(devs); i++ {
			rules = append(rules, rule(i, devs[rng.Intn(len(devs))]))
		}
		dom := d
		if trial%2 == 1 {
			var scope []string
			for _, dev := range devs {
				if rng.Intn(2) == 0 {
					scope = append(scope, dev)
				}
			}
			dom = d.Restrict(append(scope, "zz-undeclared"), vars)
		}
		fsm := policy.NewFSM(dom, rules...)

		var got []delivery
		sink := func(_ context.Context, dev string, p policy.Posture, version uint64) {
			got = append(got, delivery{dev, p.Key(), version})
		}
		build := func() *reconciler {
			r := newReconciler(fsm, sink)
			r.View.Observe(func(ctx context.Context, c ViewChange) { r.reconcile(ctx, c.Version) })
			return &r
		}
		r := build()

		// The oracle: the name-keyed diff, run after every commit.
		last := map[string]string{}
		var want []delivery
		oracle := func(v *View, version uint64) int {
			n := 0
			for dev, p := range fsm.Lookup(v.State()) {
				if key := p.Key(); last[dev] != key {
					last[dev] = key
					want = append(want, delivery{dev, key, version})
					n++
				}
			}
			return n
		}

		for step := 0; step < 80; step++ {
			switch k := rng.Intn(10); {
			case k == 0:
				// Hot-plug: declare a new device, with a rule, in the
				// fleet domain. A restricted domain's scope is fixed.
				dev := fmt.Sprintf("h%02d", step)
				d.AddDevice(dev, ctxs...)
				devs = append(devs, dev)
				fsm.AddRule(rule(100+step, dev))
			case k == 1:
				// Checkpoint, then seed a fresh reconciler from it.
				ck := r.Postures()
				if !reflect.DeepEqual(ck, last) {
					t.Fatalf("trial %d step %d: Postures() = %v, want %v", trial, step, ck, last)
				}
				for dev := range ck {
					switch rng.Intn(6) {
					case 0:
						delete(ck, dev)
					case 1:
						ck[dev] = postures[rng.Intn(len(postures))].Key()
					}
				}
				ck["zz-gone"] = policy.Posture{Isolate: true}.Key()
				declared := fsm.Lookup(r.View.State())
				last = map[string]string{}
				for dev, key := range ck {
					if _, ok := declared[dev]; ok {
						last[dev] = key
					}
				}
				repl := build()
				version := repl.View.Restore(r.View.Vars())
				repl.seedPostures(ck)
				if n, wantN := repl.reconcile(ctx, version), oracle(repl.View, version); n != wantN {
					t.Fatalf("trial %d step %d: restored reconciler pushed %d, oracle %d", trial, step, n, wantN)
				}
				r = repl
			default:
				before := r.View.Version()
				if k < 4 {
					r.View.SetDeviceContext(ctx, devs[rng.Intn(len(devs))], ctxs[rng.Intn(2)], "test")
				} else {
					r.View.SetEnv(ctx, vars[rng.Intn(len(vars))], strconv.Itoa(rng.Intn(3)), "test")
				}
				if version := r.View.Version(); version != before {
					oracle(r.View, version)
				}
			}
			// A restored view numbers its versions afresh, so compare
			// each step's deliveries on their own.
			for _, ds := range [][]delivery{got, want} {
				sort.Slice(ds, func(i, j int) bool { return ds[i].dev < ds[j].dev })
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d step %d: deliveries diverge\n got: %v\nwant: %v", trial, step, got, want)
			}
			got, want = got[:0], want[:0]
		}
		if !reflect.DeepEqual(r.Postures(), last) {
			t.Fatalf("trial %d: Postures() = %v, want %v", trial, r.Postures(), last)
		}
	}
}

// firstReconcileAllocBudget bounds what a Global's first reconcile
// over 50,000 devices allocates in all, the lookup's posture map
// included. A reconcile that copied every changed posture into its
// delivery list and kept the last pushed postures in a name-keyed map
// allocated about 33 MB; one that lists changed devices by name and
// keys the cache by ordinal allocates about 13 MB, 17 MB under the
// race detector.
const firstReconcileAllocBudget = 24 << 20

// TestGlobalFirstReconcileAllocs: the Global's first reconcile changes
// every device's posture, at the moment a fleet's set-up heap peaks;
// it must not allocate beyond the lookup itself by much.
func TestGlobalFirstReconcileAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 50k-device policy")
	}
	const n = 50_000
	d := policy.NewDomain()
	f := policy.NewFSM(d)
	for i := 0; i < n; i++ {
		dev := fmt.Sprintf("dev%06d", i)
		d.AddDevice(dev, policy.ContextNormal, policy.ContextSuspicious)
		f.AddRule(policy.Rule{
			Name:       "local-" + dev,
			Conditions: []policy.Condition{policy.EnvIs(dev+"_attr", "b")},
			Device:     dev,
			Posture:    policy.Posture{BlockCommands: []string{"ON"}},
			Priority:   5,
		})
	}
	delivered := 0
	g := NewGlobal(f, func(context.Context, string, policy.Posture, uint64) { delivered++ })

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g.View.SetEnv(context.Background(), "dev000000_attr", "b", "test")
	runtime.ReadMemStats(&after)
	if delivered != n {
		t.Fatalf("first reconcile delivered %d postures, want %d", delivered, n)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("first reconcile over %d devices allocated %d bytes (budget %d)", n, alloc, firstReconcileAllocBudget)
	if alloc > firstReconcileAllocBudget {
		t.Fatalf("first reconcile allocated %d bytes, budget %d", alloc, firstReconcileAllocBudget)
	}
}
