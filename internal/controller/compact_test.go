package controller

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/policy"
)

// randomHierarchy builds a hierarchy over n devices with random
// interaction edges and a random mix of rules: self rules on a device's
// own variable, partition rules on a shared zone variable, and rules
// that reach across partitions (which run globally).
func randomHierarchy(rng *rand.Rand, n int) (*Hierarchy, []string, []string) {
	devs := make([]string, n)
	for i := range devs {
		devs[i] = fmt.Sprintf("d%03d", i)
	}
	var edges []InteractionEdge
	for i := 0; i < 2*n; i++ {
		edges = append(edges, InteractionEdge{A: devs[rng.Intn(n)], B: devs[rng.Intn(n)], Weight: float64(rng.Intn(5))})
	}
	part := Partition(devs, edges, 2+rng.Intn(6))

	d := policy.NewDomain()
	f := policy.NewFSM(d)
	envLocality := map[string]int{}
	envVars := []string{"weather"} // global: named in no partition's locality
	d.AddEnvVar("weather", "sun", "rain")
	for g := range part.Groups {
		zone := fmt.Sprintf("zone_%d", g)
		envLocality[zone] = g
		envVars = append(envVars, zone)
		d.AddEnvVar(zone, "calm", "alarm")
	}
	for _, dev := range devs {
		d.AddDevice(dev, policy.ContextNormal, policy.ContextSuspicious)
		attr := dev + "_attr"
		envLocality[attr] = part.GroupOf(dev)
		envVars = append(envVars, attr)
		d.AddEnvVar(attr, "a", "b")
	}
	pick := func() string { return devs[rng.Intn(n)] }
	for i := 0; i < 3*n; i++ {
		dev := pick()
		var cond policy.Condition
		switch rng.Intn(5) {
		case 0:
			cond = policy.EnvIs(dev+"_attr", "b")
		case 1:
			cond = policy.EnvIs(fmt.Sprintf("zone_%d", part.GroupOf(dev)), "alarm")
		case 2:
			cond = policy.EnvIs(pick()+"_attr", "b") // local only when the pick shares dev's partition
		case 3:
			cond = policy.DeviceIs(pick(), policy.ContextSuspicious)
		default:
			cond = policy.EnvIs("weather", "rain")
		}
		f.AddRule(policy.Rule{
			Name: fmt.Sprintf("r%d", i), Conditions: []policy.Condition{cond}, Device: dev,
			Posture: policy.Posture{BlockCommands: []string{"ON"}}, Priority: rng.Intn(3),
		})
	}
	return NewHierarchy(f, part, envLocality, nil), devs, envVars
}

// oldVarInGroup is the recovery-scope test as it stood with one
// referenced-variable map per partition, built at classification.
func oldVarInGroup(h *Hierarchy, envLocality func(string) (int, bool)) func(varName string, group int) bool {
	localRuleVars := map[int]map[string]bool{}
	for _, r := range h.fsm.Rules() {
		g := h.partitioning.GroupOf(r.Device)
		local := g >= 0
		for _, c := range r.Conditions {
			var cg int
			ok := false
			if name, isDev := strings.CutPrefix(c.Var, "dev:"); isDev {
				cg = h.partitioning.GroupOf(name)
				ok = cg >= 0
			} else if name, isEnv := strings.CutPrefix(c.Var, "env:"); isEnv {
				cg, ok = envLocality(name)
			}
			if !ok || cg != g {
				local = false
				break
			}
		}
		if local {
			if localRuleVars[g] == nil {
				localRuleVars[g] = map[string]bool{}
			}
			for _, c := range r.Conditions {
				localRuleVars[g][c.Var] = true
			}
		}
	}
	return func(varName string, group int) bool {
		if name, ok := strings.CutPrefix(varName, "dev:"); ok {
			return h.partitioning.GroupOf(name) == group
		}
		if name, ok := strings.CutPrefix(varName, "env:"); ok {
			if localRuleVars[group][varName] {
				return true
			}
			if dev, ok := envVarReporter(name); ok {
				return h.partitioning.GroupOf(dev) == group
			}
		}
		return false
	}
}

// TestVarInGroupMatchesLocalRuleVars: the recovery scope built from a
// partition's retained rules answers exactly as the per-partition
// variable maps did, for every variable of random hierarchies.
func TestVarInGroupMatchesLocalRuleVars(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		h, devs, envVars := randomHierarchy(rng, 10+rng.Intn(30))
		locality := map[string]int{}
		for g := range h.partitioning.Groups {
			locality[fmt.Sprintf("zone_%d", g)] = g
		}
		for _, dev := range devs {
			locality[dev+"_attr"] = h.partitioning.GroupOf(dev)
		}
		want := oldVarInGroup(h, func(name string) (int, bool) { g, ok := locality[name]; return g, ok })

		vars := []string{"bogus", "env:", "dev:", "env:_x", "env:ghost_attr"}
		for _, dev := range devs {
			vars = append(vars, "dev:"+dev, "env:"+dev+"_other")
		}
		for _, v := range envVars {
			vars = append(vars, "env:"+v)
		}
		for g := -1; g <= len(h.partitioning.Groups); g++ {
			got := h.varInGroup(g)
			for _, v := range vars {
				if got(v) != want(v, g) {
					t.Fatalf("trial %d: varInGroup(%d)(%q) = %v, want %v", trial, g, v, got(v), want(v, g))
				}
			}
		}
	}
}

// delivery is one posture a sink was handed.
type delivery struct {
	dev, key string
	version  uint64
}

// TestPostureIDsMatchStringDiff: a reconciler recording interned posture
// ids delivers the same (device, posture, version) sequence as the diff
// over rendered keys it replaced, over random commit sequences.
func TestPostureIDsMatchStringDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	postures := []policy.Posture{
		{},
		{BlockCommands: []string{"ON"}},
		{BlockCommands: []string{"OPEN", "ON"}},
		{Isolate: true},
		{RateLimit: 5, Modules: []policy.ModuleSpec{{Kind: "ids", Config: map[string]string{"sku": "cam"}}}},
	}
	for trial := 0; trial < 20; trial++ {
		d := policy.NewDomain()
		f := policy.NewFSM(d)
		devs := []string{"a", "b", "c", "d"}
		vars := []string{"x", "y"}
		for _, v := range vars {
			d.AddEnvVar(v, "0", "1", "2")
		}
		for _, dev := range devs {
			d.AddDevice(dev, policy.ContextNormal, policy.ContextSuspicious)
		}
		for i := 0; i < 12; i++ {
			cond := policy.EnvIs(vars[rng.Intn(len(vars))], strconv.Itoa(rng.Intn(3)))
			if rng.Intn(3) == 0 {
				cond = policy.DeviceIs(devs[rng.Intn(len(devs))], policy.ContextSuspicious)
			}
			f.AddRule(policy.Rule{
				Name: fmt.Sprintf("r%d", i), Conditions: []policy.Condition{cond},
				Device: devs[rng.Intn(len(devs))], Posture: postures[rng.Intn(len(postures))], Priority: rng.Intn(2),
			})
		}

		var mu sync.Mutex
		var got []delivery
		g := NewGlobal(f, func(_ context.Context, dev string, p policy.Posture, version uint64) {
			mu.Lock()
			got = append(got, delivery{dev, p.Key(), version})
			mu.Unlock()
		})
		// The oracle: the string-keyed diff, run after every commit.
		last := map[string]string{}
		var want []delivery
		ctx := context.Background()
		for step := 0; step < 60; step++ {
			before := g.View.Version()
			if rng.Intn(3) == 0 {
				ctxs := []policy.SecurityContext{policy.ContextNormal, policy.ContextSuspicious}
				g.View.SetDeviceContext(ctx, devs[rng.Intn(len(devs))], ctxs[rng.Intn(2)], "test")
			} else {
				g.View.SetEnv(ctx, vars[rng.Intn(len(vars))], strconv.Itoa(rng.Intn(3)), "test")
			}
			version := g.View.Version()
			if version == before {
				continue // an unchanged value commits nothing
			}
			for dev, p := range f.Lookup(g.View.State()) {
				if key := p.Key(); last[dev] != key {
					last[dev] = key
					want = append(want, delivery{dev, key, version})
				}
			}
		}
		order := func(ds []delivery) {
			sort.Slice(ds, func(i, j int) bool {
				if ds[i].version != ds[j].version {
					return ds[i].version < ds[j].version
				}
				return ds[i].dev < ds[j].dev
			})
		}
		order(got)
		order(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: deliveries diverge\n got: %v\nwant: %v", trial, got, want)
		}
		if !reflect.DeepEqual(g.Postures(), last) {
			t.Fatalf("trial %d: Postures() = %v, want %v", trial, g.Postures(), last)
		}
	}
}

// TestCheckpointParentFormatSeedsWithoutRedelivery: a checkpoint whose
// postures are rendered keys, as checkpoints have always stored them,
// seeds a replacement local that then re-delivers nothing already
// enforced, and re-delivers exactly the posture that went stale.
func TestCheckpointParentFormatSeedsWithoutRedelivery(t *testing.T) {
	fx := newFailoverFixture(t)
	fx.event("fva0", "q")
	fx.event("fva1", "b")
	g0 := fx.part.GroupOf("fva0")

	raw, err := json.Marshal(Checkpoint{
		Group: g0,
		Vars:  fx.h.LocalFor(g0).View.Vars(),
		Postures: map[string]string{
			"fva0": "block=|rate=0|iso=true",
			"fva1": "block=ON|rate=0|iso=false",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	restore := func(mutate func(*Checkpoint)) (*Local, int) {
		var ck Checkpoint
		if err := json.Unmarshal(raw, &ck); err != nil {
			t.Fatal(err)
		}
		mutate(&ck)
		repl := fx.h.newLocalFor(g0)
		version := repl.View.Restore(ck.Vars)
		repl.seedPostures(ck.Postures)
		return repl, repl.reconcile(context.Background(), version)
	}

	repl, n := restore(func(*Checkpoint) {})
	if n != 0 {
		t.Fatalf("seeded replacement re-delivered %d postures, want 0", n)
	}
	var ck Checkpoint
	_ = json.Unmarshal(raw, &ck)
	if got := repl.Postures(); !reflect.DeepEqual(got, ck.Postures) {
		t.Fatalf("Postures() = %v, want the checkpoint's %v", got, ck.Postures)
	}

	_, n = restore(func(ck *Checkpoint) { ck.Postures["fva1"] = "block=|rate=0|iso=false" })
	if n != 1 {
		t.Fatalf("stale seed re-delivered %d postures, want 1", n)
	}
}

// TestCommitTimesBoundedAcrossRestore: a View.Restore jumps the version
// without recording commits; the retained commit times must stay within
// commitWindow across the jump, and the newest window stay answerable.
func TestCommitTimesBoundedAcrossRestore(t *testing.T) {
	g := NewGlobal(policy.NewFSM(policy.NewDomain()), nil)
	ctx := context.Background()

	// Through the view: restored versions are never recorded, the
	// commits around them are.
	g.View.SetEnv(ctx, "x", "0", "before restore")
	restored := g.View.Restore(map[string]string{"env:r0": "1", "env:r1": "1"})
	g.View.SetEnv(ctx, "x", "1", "after restore")
	if _, ok := g.CommitTime(restored); ok {
		t.Error("a restored version has a commit time")
	}
	for _, v := range []uint64{1, g.View.Version()} {
		if _, ok := g.CommitTime(v); !ok {
			t.Errorf("committed version %d has no commit time", v)
		}
	}

	// At scale, recorded directly: 3,000 commits, a restore of 5,000
	// variables that takes versions 3,001–8,000 unrecorded, then 5,000
	// more commits.
	now := time.Now()
	for v := uint64(1); v <= 3000; v++ {
		g.recordCommit(v, now)
	}
	for v := uint64(8001); v <= 13000; v++ {
		g.recordCommit(v, now)
	}
	newest := uint64(13000)
	retained := 0
	for v := uint64(0); v <= newest; v++ {
		if _, ok := g.CommitTime(v); ok {
			retained++
		}
	}
	if retained > commitWindow {
		t.Fatalf("%d commit times retained, window is %d", retained, commitWindow)
	}
	for v := newest - commitWindow + 1; v <= newest; v++ {
		if _, ok := g.CommitTime(v); !ok {
			t.Fatalf("version %d of the newest window not retained", v)
		}
	}
}

// TestLocalsShareRules: every local FSM holds its partition's retained
// rule subset itself, not a copy, and a subset that is contiguous in
// the policy is that stretch of the policy's own array.
func TestLocalsShareRules(t *testing.T) {
	h, _ := buildFleetHierarchy(64, 8, nil)
	all := h.fsm.Rules()
	for g, l := range h.locals {
		rules := l.fsm.Rules()
		if len(rules) == 0 || &rules[0] != &h.localRules[g][0] || cap(rules) != len(rules) {
			t.Fatalf("local %d does not share its clipped rule subset", g)
		}
		i := sort.Search(len(all), func(i int) bool { return all[i].Device >= rules[0].Device })
		if &rules[0] != &all[i] {
			t.Fatalf("local %d copied a contiguous subset", g)
		}
	}

	// Interleaved partitions cannot share the policy's array: each gets
	// one exact copy, which its local shares.
	d := policy.NewDomain()
	f := policy.NewFSM(d)
	for _, dev := range []string{"a", "c", "b", "d"} {
		d.AddDevice(dev)
		d.AddEnvVar(dev+"_attr", "a", "b")
		f.AddRule(policy.Rule{Name: dev, Conditions: []policy.Condition{policy.EnvIs(dev+"_attr", "b")}, Device: dev})
	}
	part := Partition([]string{"a", "b", "c", "d"}, []InteractionEdge{{A: "a", B: "b", Weight: 1}, {A: "c", B: "d", Weight: 1}}, 2)
	loc := map[string]int{}
	for _, dev := range []string{"a", "b", "c", "d"} {
		loc[dev+"_attr"] = part.GroupOf(dev)
	}
	h = NewHierarchy(f, part, loc, nil)
	for g, l := range h.locals {
		rules := l.fsm.Rules()
		if len(rules) != 2 || cap(rules) != 2 || &rules[0] != &h.localRules[g][0] {
			t.Fatalf("local %d: %d rules (cap %d), shared = %v", g, len(rules), cap(rules), &rules[0] == &h.localRules[g][0])
		}
	}
}

// oldPartition is Partition's union-find as it stood over string-keyed
// maps.
func oldPartition(devices []string, edges []InteractionEdge, maxGroupSize int) *Partitioning {
	parent := make(map[string]string, len(devices))
	size := make(map[string]int, len(devices))
	for _, d := range devices {
		parent[d] = d
		size[d] = 1
	}
	find := func(x string) string {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	sorted := append([]InteractionEdge(nil), edges...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Weight > sorted[j].Weight })
	for _, e := range sorted {
		ra, rb := find(e.A), find(e.B)
		if ra == rb || size[ra]+size[rb] > maxGroupSize {
			continue
		}
		parent[rb] = ra
		size[ra] += size[rb]
	}
	groupIdx := make(map[string]int)
	p := &Partitioning{assignment: make(map[string]int, len(devices))}
	for _, d := range devices {
		root := find(d)
		idx, ok := groupIdx[root]
		if !ok {
			idx = len(p.Groups)
			groupIdx[root] = idx
			p.Groups = append(p.Groups, nil)
		}
		p.Groups[idx] = append(p.Groups[idx], d)
		p.assignment[d] = idx
	}
	for i := range p.Groups {
		sort.Strings(p.Groups[i])
	}
	for _, e := range edges {
		if p.SameGroup(e.A, e.B) {
			p.InternalWeight += e.Weight
		} else {
			p.CutWeight += e.Weight
		}
	}
	return p
}

// TestPartitionMatchesStringUnionFind: the ordinal union-find groups
// random fleets, repeated names and weight ties included, exactly as the
// string-keyed one did.
func TestPartitionMatchesStringUnionFind(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		devs := make([]string, n)
		for i := range devs {
			devs[i] = fmt.Sprintf("p%02d", rng.Intn(n+n/4+1)) // some names repeat
		}
		var edges []InteractionEdge
		for i := rng.Intn(3 * n); i > 0; i-- {
			edges = append(edges, InteractionEdge{A: devs[rng.Intn(n)], B: devs[rng.Intn(n)], Weight: float64(rng.Intn(4))})
		}
		maxSize := 1 + rng.Intn(8)
		got, want := Partition(devs, edges, maxSize), oldPartition(devs, edges, maxSize)
		if !reflect.DeepEqual(got.Groups, want.Groups) || !reflect.DeepEqual(got.assignment, want.assignment) ||
			got.CutWeight != want.CutWeight || got.InternalWeight != want.InternalWeight {
			t.Fatalf("trial %d (%v, max %d):\n got %v %v\nwant %v %v", trial, devs, maxSize, got.Groups, got.assignment, want.Groups, want.assignment)
		}
	}
}

// fleetStateBudget is the live heap per device the benchmark's fleet
// shape may hold: the figure measured when the reconcilers' last pushed
// postures became slices indexed by device ordinal, plus 20%.
const fleetStateBudget = 1.2 * 608

// TestFleetStateBytesPerDevice builds the benchmark's fleet shape —
// 64-device shards, one self rule per device, one cross-partition rule,
// fleet stats attached, every device touched and the watched pair
// probed — at 20k devices, and bounds the live heap it holds per
// device.
func TestFleetStateBytesPerDevice(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20k-device fleet")
	}
	const n = 20_000
	ctx := context.Background()
	flip := func(h *Hierarchy, dev, val string) {
		h.HandleDeviceEvent(ctx, device.Event{Device: dev, Kind: device.EventStateChange, Detail: "attr=" + val})
	}
	// Fill the process-wide journal ring first, so its growth is not
	// billed to the fleet.
	warm, warmDevs := buildFleetHierarchy(64, 64, nil)
	for i := 0; i < 10_000; i++ {
		flip(warm, warmDevs[i%len(warmDevs)], []string{"a", "b"}[i/len(warmDevs)%2])
	}
	warm = nil

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	last := fmt.Sprintf("dev%06d", n-1)
	h, devs := buildFleetHierarchy(n, 64, nil, policy.Rule{
		Name: "global-cross",
		Conditions: []policy.Condition{
			policy.DeviceIs("dev000000", policy.ContextSuspicious),
			policy.DeviceIs(last, policy.ContextSuspicious),
		},
		Device:   "dev000000",
		Posture:  policy.Posture{Isolate: true},
		Priority: 9,
	})
	h.EnableFleetStats()
	for _, dev := range devs {
		flip(h, dev, "a")
	}
	for _, dev := range []string{devs[0], last} {
		h.HandleDeviceEvent(ctx, device.Event{Device: dev, Kind: device.EventBackdoorAccess, Detail: "probe"})
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	perDevice := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	runtime.KeepAlive(h)
	t.Logf("%.0f live heap bytes per device (budget %.0f)", perDevice, fleetStateBudget)
	if perDevice > fleetStateBudget {
		t.Fatalf("fleet state holds %.0f bytes per device, budget %.0f", perDevice, fleetStateBudget)
	}
}
