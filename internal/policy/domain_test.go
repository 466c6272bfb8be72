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

// TestDeviceOrdinals: a domain's ordinals are dense and in declaration
// order, a re-declaration keeps the device's ordinal and takes its new
// contexts, EachDevice walks in ordinal order, and in a restricted
// domain a device's ordinal is its position in Devices().
func TestDeviceOrdinals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		d := NewDomain()
		var declared []string // by ordinal
		for i := 0; i < 1+rng.Intn(60); i++ {
			if len(declared) > 0 && rng.Intn(4) == 0 {
				dev := declared[rng.Intn(len(declared))]
				d.AddDevice(dev, ContextNormal, ContextUnpatched)
				if got := d.DeviceContexts(dev); !slices.Equal(got, []SecurityContext{ContextNormal, ContextUnpatched}) {
					t.Fatalf("trial %d: re-declared %s has contexts %v", trial, dev, got)
				}
				continue
			}
			dev := fmt.Sprintf("x%03d", rng.Intn(1000))
			if slices.Contains(declared, dev) {
				continue
			}
			d.AddDevice(dev)
			declared = append(declared, dev)
		}
		if d.DeviceCount() != len(declared) {
			t.Fatalf("trial %d: DeviceCount = %d, want %d", trial, d.DeviceCount(), len(declared))
		}
		for want, dev := range declared {
			if ord, ok := d.DeviceOrdinal(dev); !ok || ord != want {
				t.Fatalf("trial %d: ordinal of %s = %d, %v; want %d", trial, dev, ord, ok, want)
			}
		}
		var walked []string
		d.EachDevice(func(ord int, dev string) {
			if ord != len(walked) {
				t.Fatalf("trial %d: EachDevice gave ordinal %d at step %d", trial, ord, len(walked))
			}
			walked = append(walked, dev)
		})
		if !slices.Equal(walked, declared) {
			t.Fatalf("trial %d: EachDevice walked %v, want %v", trial, walked, declared)
		}
		if _, ok := d.DeviceOrdinal("undeclared"); ok {
			t.Fatalf("trial %d: an undeclared device has an ordinal", trial)
		}

		var scope []string
		for _, dev := range declared {
			if rng.Intn(2) == 0 {
				scope = append(scope, dev)
			}
		}
		scope = append(scope, "zz-undeclared") // in scope, not in the parent
		r := d.Restrict(scope, nil)
		devs := r.Devices()
		if r.DeviceCount() != len(devs) {
			t.Fatalf("trial %d: restricted DeviceCount = %d, want %d", trial, r.DeviceCount(), len(devs))
		}
		for pos, dev := range devs {
			if ord, ok := r.DeviceOrdinal(dev); !ok || ord != pos {
				t.Fatalf("trial %d: restricted ordinal of %s = %d, %v; want %d", trial, dev, ord, ok, pos)
			}
		}
		r.EachDevice(func(ord int, dev string) {
			if devs[ord] != dev {
				t.Fatalf("trial %d: restricted EachDevice gave %s at ordinal %d, Devices() has %s", trial, dev, ord, devs[ord])
			}
		})
		for _, dev := range declared {
			if !slices.Contains(scope, dev) {
				if _, ok := r.DeviceOrdinal(dev); ok {
					t.Fatalf("trial %d: %s is out of scope but has an ordinal", trial, dev)
				}
			}
		}
	}
}
