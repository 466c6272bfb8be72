package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// scopedCopy is the oracle a restricted domain replaces: a fresh domain
// holding a copy of each named device's contexts and each named
// variable's levels, read from the fleet domain.
func scopedCopy(fleet *Domain, devices, envVars []string) *Domain {
	d := NewDomain()
	for _, dev := range devices {
		d.AddDevice(dev, fleet.DeviceContexts(dev)...)
	}
	for _, v := range envVars {
		d.AddEnvVar(v, fleet.EnvLevels(v)...)
	}
	return d
}

// TestRestrictedDomainMatchesScopedCopy: over random fleets, a domain
// restricted to a partition answers every query the way a copied scoped
// domain does — including names the fleet never declared — and an FSM
// over it resolves the same postures in random states.
func TestRestrictedDomainMatchesScopedCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctxLists := [][]SecurityContext{
		{ContextNormal, ContextSuspicious},
		{ContextNormal, ContextSuspicious, ContextCompromised},
		{ContextNormal, ContextUnpatched},
		nil, // AddDevice's default
	}
	levelLists := [][]string{{"a", "b"}, {"lo", "mid", "hi"}, {"x"}, nil}
	for trial := 0; trial < 50; trial++ {
		fleet := NewDomain()
		var devs, envs []string
		for i := 0; i < 5+rng.Intn(40); i++ {
			dev := fmt.Sprintf("d%02d", i)
			devs = append(devs, dev)
			fleet.AddDevice(dev, ctxLists[rng.Intn(len(ctxLists))]...)
			env := dev + "_attr"
			envs = append(envs, env)
			fleet.AddEnvVar(env, levelLists[rng.Intn(len(levelLists))]...)
		}
		// The partition: a sorted subset, plus names the fleet lacks.
		var scopeDevs, scopeEnvs []string
		for i, dev := range devs {
			if rng.Intn(3) == 0 {
				scopeDevs = append(scopeDevs, dev)
				if rng.Intn(2) == 0 {
					scopeEnvs = append(scopeEnvs, envs[i])
				}
			}
		}
		scopeDevs = append(scopeDevs, "zz-undeclared")
		scopeEnvs = append(scopeEnvs, "zz-undeclared_attr")

		want := scopedCopy(fleet, scopeDevs, scopeEnvs)
		got := fleet.Restrict(scopeDevs, scopeEnvs)
		if trial%2 == 1 { // unsorted, repeated names: Restrict sorts a copy
			devs := append(slices.Clone(scopeDevs), scopeDevs[0])
			rng.Shuffle(len(devs), func(i, j int) { devs[i], devs[j] = devs[j], devs[i] })
			got = fleet.Restrict(devs, scopeEnvs)
		}

		if !reflect.DeepEqual(got.Devices(), want.Devices()) {
			t.Fatalf("trial %d: Devices %v, want %v", trial, got.Devices(), want.Devices())
		}
		if !reflect.DeepEqual(got.EnvVars(), want.EnvVars()) {
			t.Fatalf("trial %d: EnvVars %v, want %v", trial, got.EnvVars(), want.EnvVars())
		}
		for _, dev := range append(devs, "zz-undeclared", "ghost") {
			if g, w := got.DeviceContexts(dev), want.DeviceContexts(dev); !reflect.DeepEqual(g, w) {
				t.Fatalf("trial %d: DeviceContexts(%s) = %v, want %v", trial, dev, g, w)
			}
		}
		for _, v := range append(envs, "zz-undeclared_attr", "ghost") {
			if g, w := got.EnvLevels(v), want.EnvLevels(v); !reflect.DeepEqual(g, w) {
				t.Fatalf("trial %d: EnvLevels(%s) = %v, want %v", trial, v, g, w)
			}
		}
		if g, w := got.StateCount(), want.StateCount(); g != w {
			t.Fatalf("trial %d: StateCount = %v, want %v", trial, g, w)
		}

		// The same rules over both domains, one per scoped device, on
		// its own variable or on its own context.
		var rules []Rule
		for i, dev := range scopeDevs[:len(scopeDevs)-1] {
			cond := DeviceIs(dev, ContextSuspicious)
			if i%2 == 0 {
				cond = EnvIs(dev+"_attr", "b")
			}
			rules = append(rules, Rule{Name: "r-" + dev, Conditions: []Condition{cond}, Device: dev,
				Posture: Posture{BlockCommands: []string{"ON"}}, Priority: rng.Intn(3)})
		}
		gotFSM, wantFSM := NewFSM(got, rules...), NewFSM(want, rules...)
		for s := 0; s < 20; s++ {
			st := NewState()
			for _, dev := range devs {
				st.Contexts[dev] = []SecurityContext{ContextNormal, ContextSuspicious}[rng.Intn(2)]
				st.Env[dev+"_attr"] = []string{"a", "b"}[rng.Intn(2)]
			}
			if g, w := gotFSM.Lookup(st), wantFSM.Lookup(st); !reflect.DeepEqual(g, w) {
				t.Fatalf("trial %d: Lookup(%s) = %v, want %v", trial, st, g, w)
			}
		}
	}
}

// TestDomainValueListsAreSharedAndClipped: names declared with the same
// values share one read-only, capacity-clipped slice, so appending to
// what one name returns never changes another's.
func TestDomainValueListsAreSharedAndClipped(t *testing.T) {
	d := NewDomain()
	ctxs := []SecurityContext{ContextNormal, ContextSuspicious}
	d.AddDevice("a", ctxs...)
	d.AddDevice("b", ContextNormal, ContextSuspicious)
	d.AddDevice("c", ContextNormal, ContextCompromised)
	d.AddEnvVar("x", "lo", "hi")
	d.AddEnvVar("y", "lo", "hi")

	a, b := d.DeviceContexts("a"), d.DeviceContexts("b")
	if &a[0] != &b[0] {
		t.Error("devices declared with the same contexts hold separate lists")
	}
	if &a[0] == &ctxs[0] {
		t.Error("domain kept the caller's slice")
	}
	if cap(a) != len(a) || cap(d.EnvLevels("x")) != len(d.EnvLevels("x")) {
		t.Error("returned lists are not capacity-clipped")
	}
	if x, y := d.EnvLevels("x"), d.EnvLevels("y"); &x[0] != &y[0] {
		t.Error("variables declared with the same levels hold separate lists")
	}
	_ = append(a, ContextCompromised)
	if got := d.DeviceContexts("b"); len(got) != 2 || got[1] != ContextSuspicious {
		t.Errorf("append through one device changed another: %v", got)
	}
	if got := d.DeviceContexts("c"); got[1] != ContextCompromised {
		t.Errorf("c = %v", got)
	}
	// Redeclaring a name replaces its list.
	d.AddDevice("a", ContextUnpatched)
	if got := d.DeviceContexts("a"); len(got) != 1 || got[0] != ContextUnpatched {
		t.Errorf("redeclared a = %v", got)
	}
}

// TestNewFSMAdoptsRules: NewFSM keeps the caller's rules without a copy,
// and AddRule never writes into the caller's array.
func TestNewFSMAdoptsRules(t *testing.T) {
	backing := make([]Rule, 2, 8)
	backing[0].Name, backing[1].Name = "r0", "r1"
	f := NewFSM(NewDomain(), backing[:1]...)
	if &f.Rules()[0] != &backing[0] {
		t.Fatal("NewFSM copied the rules")
	}
	f.AddRule(Rule{Name: "added"})
	if backing[1].Name != "r1" {
		t.Fatalf("AddRule wrote into the caller's array: %q", backing[1].Name)
	}
	if got := len(f.Rules()); got != 2 {
		t.Fatalf("rules = %d, want 2", got)
	}
}
