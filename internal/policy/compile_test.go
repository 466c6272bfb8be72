package policy

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// The rule-walking policy the compiled one replaced: the oracle the
// tests below hold the compiled FSM to.

// oracleHolds evaluates a condition against a state.
func oracleHolds(c Condition, s State) bool {
	if name, ok := strings.CutPrefix(c.Var, "dev:"); ok {
		return string(s.Contexts[name]) == c.Value
	}
	if name, ok := strings.CutPrefix(c.Var, "env:"); ok {
		return s.Env[name] == c.Value
	}
	return false
}

// oracleLookup is Lookup over the caller's rules.
func oracleLookup(d *Domain, rules []Rule, s State) map[string]Posture {
	out := make(map[string]Posture, d.DeviceCount())
	type winner struct {
		priority int
		posture  Posture
	}
	best := make(map[string]*winner)
	for _, r := range rules {
		matches := true
		for _, c := range r.Conditions {
			matches = matches && oracleHolds(c, s)
		}
		if !matches {
			continue
		}
		w := best[r.Device]
		switch {
		case w == nil || r.Priority > w.priority:
			best[r.Device] = &winner{priority: r.Priority, posture: r.Posture}
		case r.Priority == w.priority:
			w.posture = w.posture.Merge(r.Posture)
		}
	}
	for _, dev := range d.names() {
		if w := best[dev]; w != nil {
			out[dev] = w.posture
		} else {
			out[dev] = Posture{}
		}
	}
	return out
}

// oracleReferencedVars is ReferencedVars over the caller's rules.
func oracleReferencedVars(rules []Rule) []string {
	seen := map[string]bool{}
	for _, r := range rules {
		for _, c := range r.Conditions {
			seen[c.Var] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// policyGen draws random policies over a pool of names, some of which
// the domain declares at once, some later (hot-plug), some never.
type policyGen struct {
	rng        *rand.Rand
	devs, envs []string
}

func newPolicyGen(rng *rand.Rand) *policyGen {
	g := &policyGen{rng: rng}
	for i := 0; i < 2+rng.Intn(8); i++ {
		g.devs = append(g.devs, fmt.Sprintf("d%d", i))
	}
	for i := 0; i < 1+rng.Intn(6); i++ {
		g.envs = append(g.envs, fmt.Sprintf("e%d", i))
	}
	return g
}

// pick draws one of vals.
func pick[T any](g *policyGen, vals []T) T { return vals[g.rng.Intn(len(vals))] }

// posture draws from a small pool, so equal-priority matches merge
// modules, commands, rates and isolation, and equal postures built
// separately (or differing only in order or nil-ness) meet.
func (g *policyGen) posture() Posture {
	switch g.rng.Intn(9) {
	case 0:
		return Posture{}
	case 1:
		return Posture{BlockCommands: []string{"ON"}}
	case 2:
		return Posture{BlockCommands: []string{"ON", "OFF"}}
	case 3:
		return Posture{BlockCommands: []string{"OFF", "ON"}}
	case 4:
		return Posture{BlockCommands: []string{}, RateLimit: float64(1 + g.rng.Intn(3))}
	case 5:
		return Posture{Modules: []ModuleSpec{{Kind: "ids"}, {Kind: "stateful-fw"}}}
	case 6:
		return Posture{Modules: []ModuleSpec{{Kind: "context-gate", Config: map[string]string{"allow": pick(g, []string{"ON", "OFF"})}}}}
	case 7:
		return Posture{Modules: []ModuleSpec{{Kind: "logger", Config: map[string]string{}}}, RateLimit: 2}
	default:
		return Posture{Isolate: true}
	}
}

// condition draws a device or env condition (its value sometimes off
// the declared lists, sometimes ""), or, rarely, one whose variable has
// neither prefix.
func (g *policyGen) condition() Condition {
	switch g.rng.Intn(9) {
	case 0, 1, 2, 3:
		return DeviceIs(pick(g, g.devs), pick(g, []SecurityContext{ContextNormal, ContextSuspicious, ContextSuspicious, ContextCompromised, ""}))
	case 4, 5, 6, 7:
		return EnvIs(pick(g, g.envs), pick(g, []string{"a", "b", "b", "c", ""}))
	default:
		return Condition{Var: pick(g, []string{"weather", "d0", "dev", "envy:e0"}), Value: pick(g, []string{"", "a"})}
	}
}

func (g *policyGen) rule(i int) Rule {
	r := Rule{
		Name:     fmt.Sprintf("r%d", i),
		Device:   pick(g, g.devs),
		Posture:  g.posture(),
		Priority: g.rng.Intn(3),
	}
	if g.rng.Intn(20) == 0 {
		r.Priority = pick(g, []int{math.MinInt, math.MaxInt, 1 << 40})
	}
	for k := g.rng.Intn(4); k > 0; k-- {
		r.Conditions = append(r.Conditions, g.condition())
	}
	return r
}

// state draws a state over every name in the pool, undeclared ones
// included, leaving some unset.
func (g *policyGen) state() State {
	s := NewState()
	for _, dev := range g.devs {
		if g.rng.Intn(5) > 0 {
			s.Contexts[dev] = pick(g, []SecurityContext{ContextNormal, ContextSuspicious, ContextCompromised})
		}
	}
	for _, v := range g.envs {
		if g.rng.Intn(5) > 0 {
			s.Env[v] = pick(g, []string{"a", "b", "c"})
		}
	}
	if g.rng.Intn(3) == 0 {
		s.Env["weather"], s.Contexts["d0"] = "a", "a"
	}
	return s
}

// checkRules compares what f reports of its rules with the rules.
func checkRules(t *testing.T, label string, f *FSM, rules []Rule) {
	t.Helper()
	if f.RuleCount() != len(rules) {
		t.Fatalf("%s: RuleCount %d, want %d", label, f.RuleCount(), len(rules))
	}
	for i, r := range rules {
		if got := f.RuleDevice(i); got != r.Device {
			t.Fatalf("%s: RuleDevice(%d) = %q, want %q", label, i, got, r.Device)
		}
		var vars []string
		f.EachVar(i, func(prefix, name string) bool {
			vars = append(vars, prefix+name)
			return true
		})
		var want []string
		for _, c := range r.Conditions {
			want = append(want, c.Var)
		}
		if !slices.Equal(vars, want) {
			t.Fatalf("%s: rule %d vars %v, want %v", label, i, vars, want)
		}
	}
	if got, want := f.ReferencedVars(), oracleReferencedVars(rules); !slices.Equal(got, want) {
		t.Fatalf("%s: ReferencedVars %v, want %v", label, got, want)
	}
}

// TestCompiledLookupMatchesOracle drives random domains and policies
// through the compiled FSM and the rule-walking oracle — over the full
// domain and a restricted one, with rules naming devices and variables
// declared before, after or never — and compares every lookup over
// random states, before and after a hot-plug and after rules added
// once the hot-plugged names are declared.
func TestCompiledLookupMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 400; trial++ {
		g := newPolicyGen(rng)
		d := NewDomain()
		// Declare a prefix of each pool now, in shuffled order, and the
		// next stretch later; the rest stays undeclared.
		nowDevs, nowEnvs := rng.Intn(len(g.devs)+1), rng.Intn(len(g.envs)+1)
		laterDevs, laterEnvs := nowDevs+rng.Intn(len(g.devs)-nowDevs+1), nowEnvs+rng.Intn(len(g.envs)-nowEnvs+1)
		for _, i := range rng.Perm(nowDevs) {
			d.AddDevice(g.devs[i], ContextNormal, ContextSuspicious)
		}
		for _, i := range rng.Perm(nowEnvs) {
			d.AddEnvVar(g.envs[i], "a", "b")
		}
		var scopeDevs, scopeEnvs []string
		for _, dev := range g.devs {
			if rng.Intn(2) == 0 {
				scopeDevs = append(scopeDevs, dev)
			}
		}
		for _, v := range g.envs {
			if rng.Intn(2) == 0 {
				scopeEnvs = append(scopeEnvs, v)
			}
		}
		scoped := d.Restrict(scopeDevs, scopeEnvs)

		var rules []Rule
		for i := 0; i < rng.Intn(25); i++ {
			rules = append(rules, g.rule(i))
		}
		split := rng.Intn(len(rules) + 1)
		full := NewFSM(d, rules[:split]...)
		restricted := NewFSM(scoped, rules[:split]...)
		for _, r := range rules[split:] {
			full.AddRule(r)
			restricted.AddRule(r)
		}
		check := func(stage string) {
			t.Helper()
			checkRules(t, fmt.Sprintf("trial %d %s", trial, stage), full, rules)
			checkRules(t, fmt.Sprintf("trial %d %s restricted", trial, stage), restricted, rules)
			for k := 0; k < 20; k++ {
				s := g.state()
				if got, want := full.Lookup(s), oracleLookup(d, rules, s); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s: Lookup(%s)\n got %v\nwant %v", trial, stage, s, got, want)
				}
				if got, want := restricted.Lookup(s), oracleLookup(scoped, rules, s); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s: restricted Lookup(%s)\n got %v\nwant %v", trial, stage, s, got, want)
				}
			}
		}
		check("declared")
		for _, dev := range g.devs[nowDevs:laterDevs] {
			d.AddDevice(dev)
		}
		for _, v := range g.envs[nowEnvs:laterEnvs] {
			d.AddEnvVar(v, "a", "b", "c")
		}
		check("hot-plugged")
		for i := 0; i < rng.Intn(8); i++ {
			r := g.rule(len(rules))
			rules = append(rules, r)
			full.AddRule(r)
			restricted.AddRule(r)
		}
		check("rules after hot-plug")
	}
}

// TestSubsetMatchesOracle: a subset over a range of rules, filtered or
// not, over the full domain or a restricted one, resolves what the
// oracle resolves over the kept rules. An unfiltered subset shares the
// policy's compiled rules, a filtered one copies them at exact size,
// both capacity-clipped, and AddRule on either policy never changes
// the other.
func TestSubsetMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 300; trial++ {
		g := newPolicyGen(rng)
		d := NewDomain()
		for _, dev := range g.devs[:len(g.devs)-1] {
			d.AddDevice(dev)
		}
		for _, v := range g.envs {
			d.AddEnvVar(v, "a", "b")
		}
		var rules []Rule
		for i := 0; i < 1+rng.Intn(20); i++ {
			rules = append(rules, g.rule(i))
		}
		f := NewFSM(d, rules...)
		lo := rng.Intn(len(rules) + 1)
		hi := lo + rng.Intn(len(rules)-lo+1)
		var keep func(int) bool
		kept := slices.Clone(rules[lo:hi])
		if rng.Intn(2) == 0 {
			mask := make([]bool, len(rules))
			kept = kept[:0]
			for i := lo; i < hi; i++ {
				if mask[i] = rng.Intn(3) > 0; mask[i] {
					kept = append(kept, rules[i])
				}
			}
			keep = func(i int) bool { return mask[i] }
		}
		over := d
		if rng.Intn(2) == 0 {
			over = d.Restrict(g.devs[:1+rng.Intn(len(g.devs))], g.envs[:rng.Intn(len(g.envs)+1)])
		}
		sub := f.Subset(over, lo, hi, keep)
		label := fmt.Sprintf("trial %d [%d,%d) of %d", trial, lo, hi, len(rules))
		if len(kept) == hi-lo && hi > lo && &sub.rules[1] != &f.rules[lo+1] {
			t.Fatalf("%s: a whole range is not shared", label)
		}
		if cap(sub.rules) != len(sub.rules) || cap(sub.conds) != len(sub.conds) {
			t.Fatalf("%s: the subset's records are not clipped or exact", label)
		}
		compare := func(stage string) {
			t.Helper()
			checkRules(t, label+" "+stage, sub, kept)
			checkRules(t, label+" "+stage+" parent", f, rules)
			for k := 0; k < 10; k++ {
				s := g.state()
				if got, want := sub.Lookup(s), oracleLookup(over, kept, s); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s: Lookup(%s)\n got %v\nwant %v", label, stage, s, got, want)
				}
				if got, want := f.Lookup(s), oracleLookup(d, rules, s); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s: parent Lookup(%s)\n got %v\nwant %v", label, stage, s, got, want)
				}
			}
		}
		compare("built")
		r := g.rule(100)
		r.Conditions = append(r.Conditions, EnvIs("fresh", "z"))
		sub.AddRule(r)
		kept = append(kept, r)
		compare("rule added to the subset")
		r = g.rule(101)
		r.Posture = Posture{RateLimit: 7}
		f.AddRule(r)
		rules = append(rules, r)
		compare("rule added to the parent")
	}
}

// TestSubsetRefusesAnotherDomain: a subset's domain must resolve to the
// policy's full domain.
func TestSubsetRefusesAnotherDomain(t *testing.T) {
	f := NewFSM(NewDomain(), Rule{Device: "a"})
	defer func() {
		if recover() == nil {
			t.Fatal("Subset over another domain did not panic")
		}
	}()
	f.Subset(NewDomain(), 0, 1, nil)
}

// TestNewFSMCompilesRules: the policy neither writes into nor keeps the
// caller's rules: AddRule leaves the caller's spare capacity alone,
// and the rules' array becomes collectable once the caller drops it.
func TestNewFSMCompilesRules(t *testing.T) {
	backing := make([]Rule, 2, 8)
	backing[0].Name, backing[1].Name = "r0", "r1"
	f := NewFSM(NewDomain(), backing[:1]...)
	f.AddRule(Rule{Name: "added"})
	if backing[1].Name != "r1" {
		t.Fatalf("AddRule wrote into the caller's array: %q", backing[1].Name)
	}
	if got := f.RuleCount(); got != 2 {
		t.Fatalf("rules = %d, want 2", got)
	}

	collected := make(chan struct{})
	rules := make([]Rule, 4)
	runtime.SetFinalizer(&rules[0], func(*Rule) { close(collected) })
	f = NewFSM(NewDomain(), rules...)
	rules = nil
	waitCollected(t, collected, "the caller's rules array")
	runtime.KeepAlive(f)
}

// waitCollected runs the collector until a finalizer closes done.
func waitCollected(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-done:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("%s is still reachable", what)
}

// compiledRuleBudget is the live heap a bench-shaped rule may keep
// once compiled: a 12-byte record, an 8-byte condition, and slack for
// the slices' growth.
const compiledRuleBudget = 64

// TestCompiledRuleBytes adds the benchmark fleet's rules — one per
// device on its own env var, each with its own name, condition array,
// variable string and command slice — to a declared domain, and
// bounds the live heap the policy keeps per rule. The caller's
// per-rule objects must be collectable: a finalizer on one rule's
// condition array runs.
func TestCompiledRuleBytes(t *testing.T) {
	const n = 20_000
	d := NewDomain()
	devs := make([]string, n)
	for i := range devs {
		devs[i] = fmt.Sprintf("dev%06d", i)
		d.AddDevice(devs[i], ContextNormal, ContextSuspicious)
		d.AddEnvVar(devs[i]+"_attr", "a", "b")
	}
	collected := make(chan struct{})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	f := NewFSM(d)
	for i, dev := range devs {
		conds := []Condition{EnvIs(dev+"_attr", "b")}
		if i == n/2 {
			runtime.SetFinalizer(&conds[0], func(*Condition) { close(collected) })
		}
		f.AddRule(Rule{
			Name:       "local-" + dev,
			Conditions: conds,
			Device:     dev,
			Posture:    Posture{BlockCommands: []string{"ON"}},
			Priority:   5,
		})
	}
	waitCollected(t, collected, "a rule's condition array")

	runtime.GC()
	runtime.ReadMemStats(&after)
	perRule := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	runtime.KeepAlive(f)
	runtime.KeepAlive(devs)
	t.Logf("%.1f live heap bytes per rule (budget %d)", perRule, compiledRuleBudget)
	if perRule > compiledRuleBudget {
		t.Fatalf("the compiled policy keeps %.1f bytes per rule, budget %d", perRule, compiledRuleBudget)
	}
}
