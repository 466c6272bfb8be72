package controller

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/policy"
)

// randomFleet is a random policy over a partitioned fleet, in the
// caller's shape.
type randomFleet struct {
	devs, envVars []string
	part          *Partitioning
	envLocality   map[string]int
	domain        *policy.Domain
	rules         []policy.Rule
}

// drawFleet draws n devices with random interaction edges and a random
// mix of rules: self rules on a device's own variable, partition rules
// on a shared zone variable, and rules that reach across partitions
// (which run globally).
func drawFleet(rng *rand.Rand, n int) randomFleet {
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
	var rules []policy.Rule
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
		rules = append(rules, policy.Rule{
			Name: fmt.Sprintf("r%d", i), Conditions: []policy.Condition{cond}, Device: dev,
			Posture: policy.Posture{BlockCommands: []string{"ON"}}, Priority: rng.Intn(3),
		})
	}
	return randomFleet{devs: devs, envVars: envVars, part: part, envLocality: envLocality, domain: d, rules: rules}
}

// hierarchy builds the hierarchy over the fleet's policy.
func (fl randomFleet) hierarchy() *Hierarchy {
	return NewHierarchy(policy.NewFSM(fl.domain, fl.rules...), fl.part, fl.envLocality, nil)
}

// randomHierarchy builds a hierarchy over a random fleet of n devices.
func randomHierarchy(rng *rand.Rand, n int) (*Hierarchy, []string, []string) {
	fl := drawFleet(rng, n)
	return fl.hierarchy(), fl.devs, fl.envVars
}

// oldClassify is NewHierarchyWithGlobal's rule classification as it
// stood over the caller's []Rule: each partition's delegated rules,
// and the variables of the rules that run globally.
func oldClassify(rules []policy.Rule, part *Partitioning, envLocality map[string]int) (map[int][]policy.Rule, map[string]bool) {
	local := map[int][]policy.Rule{}
	globalVars := map[string]bool{}
	for _, r := range rules {
		g := part.GroupOf(r.Device)
		ok := g >= 0
		for _, c := range r.Conditions {
			var cg int
			found := false
			if name, isDev := strings.CutPrefix(c.Var, "dev:"); isDev {
				cg = part.GroupOf(name)
				found = cg >= 0
			} else if name, isEnv := strings.CutPrefix(c.Var, "env:"); isEnv {
				cg, found = envLocality[name]
			}
			if !found || cg != g {
				ok = false
				break
			}
		}
		if ok {
			local[g] = append(local[g], r)
			continue
		}
		for _, c := range r.Conditions {
			globalVars[c.Var] = true
		}
	}
	return local, globalVars
}

// oldRuleEnvVars is a local's env scope as it stood: the "env:" names
// of its rules' conditions, sorted and duplicate-free.
func oldRuleEnvVars(rules []policy.Rule) []string {
	var out []string
	for _, r := range rules {
		for _, c := range r.Conditions {
			if name, ok := strings.CutPrefix(c.Var, "env:"); ok {
				out = append(out, name)
			}
		}
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// oldVarInGroup is the recovery-scope test as it stood with one
// referenced-variable map per partition, built at classification.
func oldVarInGroup(part *Partitioning, rules []policy.Rule, envLocality map[string]int) func(varName string, group int) bool {
	local, _ := oldClassify(rules, part, envLocality)
	localRuleVars := map[int]map[string]bool{}
	for g, rs := range local {
		localRuleVars[g] = map[string]bool{}
		for _, r := range rs {
			for _, c := range r.Conditions {
				localRuleVars[g][c.Var] = true
			}
		}
	}
	return func(varName string, group int) bool {
		if name, ok := strings.CutPrefix(varName, "dev:"); ok {
			return part.GroupOf(name) == group
		}
		if name, ok := strings.CutPrefix(varName, "env:"); ok {
			if localRuleVars[group][varName] {
				return true
			}
			if dev, ok := envVarReporter(name); ok {
				return part.GroupOf(dev) == group
			}
		}
		return false
	}
}

// sameRules reports whether a compiled policy holds the rules' devices
// and condition variables, in order.
func sameRules(f *policy.FSM, rules []policy.Rule) bool {
	if f.RuleCount() != len(rules) {
		return false
	}
	for i, r := range rules {
		if f.RuleDevice(i) != r.Device {
			return false
		}
		var vars []string
		f.EachVar(i, func(prefix, name string) bool {
			vars = append(vars, prefix+name)
			return true
		})
		for k, c := range r.Conditions {
			if k >= len(vars) || vars[k] != c.Var {
				return false
			}
		}
		if len(vars) != len(r.Conditions) {
			return false
		}
	}
	return true
}

// TestClassificationMatchesRuleSlices: over random hierarchies, some
// with their rules in partition order so local rule sets are contiguous
// and shared, the compiled classification delegates the same rules to
// each partition as the []Rule path did, escalates the same variables,
// gives each local the same env scope, and each local resolves the
// postures an FSM over its old rule slice resolves.
func TestClassificationMatchesRuleSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		fl := drawFleet(rng, 10+rng.Intn(40))
		if trial%2 == 1 {
			slices.SortStableFunc(fl.rules, func(a, b policy.Rule) int {
				return fl.part.GroupOf(a.Device) - fl.part.GroupOf(b.Device)
			})
		}
		h := fl.hierarchy()
		wantLocal, wantGlobal := oldClassify(fl.rules, fl.part, fl.envLocality)
		if !reflect.DeepEqual(h.globalVars, wantGlobal) {
			t.Fatalf("trial %d: globalVars %v, want %v", trial, h.globalVars, wantGlobal)
		}
		if len(h.localRules) != len(wantLocal) || len(h.locals) != len(wantLocal) {
			t.Fatalf("trial %d: %d local rule sets and %d locals, want %d", trial, len(h.localRules), len(h.locals), len(wantLocal))
		}
		for g, want := range wantLocal {
			l := h.locals[g]
			if !sameRules(h.localRules[g], want) || !sameRules(l.fsm, want) {
				t.Fatalf("trial %d: partition %d's rules differ from the []Rule path's", trial, g)
			}
			scope := oldRuleEnvVars(want)
			if !slices.Equal(l.View.env.scope, scope) || !slices.Equal(l.fsm.Domain.EnvVars(), scope) {
				t.Fatalf("trial %d: local %d env scope %v (domain %v), want %v", trial, g, l.View.env.scope, l.fsm.Domain.EnvVars(), scope)
			}
			oldFSM := policy.NewFSM(fl.domain.Restrict(fl.part.Groups[g], scope), want...)
			for k := 0; k < 5; k++ {
				s := policy.NewState()
				for _, dev := range fl.part.Groups[g] {
					s.Contexts[dev] = []policy.SecurityContext{policy.ContextNormal, policy.ContextSuspicious}[rng.Intn(2)]
				}
				for _, v := range scope {
					s.Env[v] = []string{"a", "b", "calm", "alarm"}[rng.Intn(4)]
				}
				if got, want := l.fsm.Lookup(s), oldFSM.Lookup(s); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: local %d Lookup(%s) = %v, want %v", trial, g, s, got, want)
				}
			}
		}
	}
}

// TestVarInGroupMatchesLocalRuleVars: the recovery scope built from a
// partition's retained rules answers exactly as the per-partition
// variable maps did, for every variable of random hierarchies.
func TestVarInGroupMatchesLocalRuleVars(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		fl := drawFleet(rng, 10+rng.Intn(30))
		h := fl.hierarchy()
		want := oldVarInGroup(fl.part, fl.rules, fl.envLocality)

		vars := []string{"bogus", "env:", "dev:", "env:_x", "env:ghost_attr"}
		for _, dev := range fl.devs {
			vars = append(vars, "dev:"+dev, "env:"+dev+"_other")
		}
		for _, v := range fl.envVars {
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

// compiledRules reads where a policy's compiled rule records start,
// how many it holds, its capacity, and the size of one record.
func compiledRules(f *policy.FSM) (data uintptr, n, c int, size uintptr) {
	v := reflect.ValueOf(f).Elem().FieldByName("rules")
	return v.Pointer(), v.Len(), v.Cap(), v.Type().Elem().Size()
}

// TestLocalsShareCompiledRules: every local FSM holds its partition's
// retained rule subset itself, not a copy, and a subset that is
// contiguous in the policy is that stretch of the policy's own
// compiled records, capacity-clipped.
func TestLocalsShareCompiledRules(t *testing.T) {
	h, _ := buildFleetHierarchy(64, 8, nil)
	rootData, _, _, size := compiledRules(h.fsm)
	for g, l := range h.locals {
		data, n, c, _ := compiledRules(l.fsm)
		retained, _, _, _ := compiledRules(h.localRules[g])
		if n < 2 || data != retained || c != n {
			t.Fatalf("local %d does not share its clipped rule subset", g)
		}
		first := l.fsm.RuleDevice(0)
		i := sort.Search(h.fsm.RuleCount(), func(i int) bool { return h.fsm.RuleDevice(i) >= first })
		// A shared stretch starts one record early: the record before
		// its first rule (or the policy's header) marks where that
		// rule's conditions begin.
		if data != rootData+uintptr(i)*size {
			t.Fatalf("local %d copied a contiguous subset", g)
		}
	}

	// Interleaved partitions cannot share the policy's records: each
	// gets one exact copy, which its local shares.
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
		data, n, c, _ := compiledRules(l.fsm)
		retained, _, _, _ := compiledRules(h.localRules[g])
		if l.fsm.RuleCount() != 2 || c != n || data != retained {
			t.Fatalf("local %d: %d rules (%d records, cap %d), shared = %v", g, l.fsm.RuleCount(), n, c, data == retained)
		}
	}
}

// stringPartitioning is Partitioning as it stood, with its
// device → group map.
type stringPartitioning struct {
	Groups                    [][]string
	assignment                map[string]int
	CutWeight, InternalWeight float64
}

// oldPartition is Partition's union-find as it stood over string-keyed
// maps.
func oldPartition(devices []string, edges []InteractionEdge, maxGroupSize int) *stringPartitioning {
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
	p := &stringPartitioning{assignment: make(map[string]int, len(devices))}
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
		if p.sameGroup(e.A, e.B) {
			p.InternalWeight += e.Weight
		} else {
			p.CutWeight += e.Weight
		}
	}
	return p
}

func (p *stringPartitioning) groupOf(device string) int {
	if g, ok := p.assignment[device]; ok {
		return g
	}
	return -1
}

func (p *stringPartitioning) sameGroup(a, b string) bool {
	ga, ok1 := p.assignment[a]
	gb, ok2 := p.assignment[b]
	return ok1 && ok2 && ga == gb
}

// TestPartitionMatchesStringUnionFind: the ordinal union-find groups
// random fleets, repeated names and weight ties included, exactly as the
// string-keyed one did, and GroupOf and SameGroup answer as its map did
// for every name, absent ones included, whether or not the device list
// came sorted.
func TestPartitionMatchesStringUnionFind(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(40)
		devs := make([]string, n)
		for i := range devs {
			devs[i] = fmt.Sprintf("p%02d", rng.Intn(n+n/4+1)) // some names repeat
		}
		if trial%2 == 1 { // sorted and duplicate-free: Partition keeps the slice
			devs = policy.SortedSet(devs)
			n = len(devs)
		}
		var edges []InteractionEdge
		for i := rng.Intn(3 * n); i > 0; i-- {
			edges = append(edges, InteractionEdge{A: devs[rng.Intn(n)], B: devs[rng.Intn(n)], Weight: float64(rng.Intn(4))})
		}
		maxSize := 1 + rng.Intn(8)
		got, want := Partition(devs, edges, maxSize), oldPartition(devs, edges, maxSize)
		if !reflect.DeepEqual(got.Groups, want.Groups) ||
			got.CutWeight != want.CutWeight || got.InternalWeight != want.InternalWeight {
			t.Fatalf("trial %d (%v, max %d):\n got %v\nwant %v", trial, devs, maxSize, got.Groups, want.Groups)
		}
		names := []string{"", "p", "p999", "q00"} // absent
		for i := 0; i <= n+n/4+1; i++ {
			names = append(names, fmt.Sprintf("p%02d", i))
		}
		for _, a := range names {
			if g, w := got.GroupOf(a), want.groupOf(a); g != w {
				t.Fatalf("trial %d: GroupOf(%q) = %d, want %d", trial, a, g, w)
			}
			for _, b := range names {
				if g, w := got.SameGroup(a, b), want.sameGroup(a, b); g != w {
					t.Fatalf("trial %d: SameGroup(%q, %q) = %v, want %v", trial, a, b, g, w)
				}
			}
		}
	}
}

// fleetStateBudget is the live heap per device the benchmark's fleet
// shape may hold: the figure measured when the policy was compiled to
// records over domain ordinals, plus 20%.
const fleetStateBudget = 1.2 * 297

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
