package policy

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestDeviceIndexMatchesMap declares devices in random order, repeats
// included, through many rehashes of the domain's device index, and
// checks every lookup, absent names included, against a
// map[string]uint32 oracle.
func TestDeviceIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ctxs := [][]SecurityContext{nil, {ContextNormal, ContextUnpatched}, {ContextSuspicious}}
	for trial := 0; trial < 20; trial++ {
		d := NewDomain()
		oracle := map[string]uint32{}
		oracleCtx := map[string][]SecurityContext{}
		var names []string
		universe := 1 + rng.Intn(3000)
		check := func(step int) {
			t.Helper()
			if got := d.DeviceCount(); got != len(oracle) {
				t.Fatalf("trial %d step %d: DeviceCount %d, want %d", trial, step, got, len(oracle))
			}
			if n := len(d.devices.slots); n > 0 && 2*len(oracle) > n {
				t.Fatalf("trial %d step %d: %d devices in %d slots, over half full", trial, step, len(oracle), n)
			}
			for _, name := range []string{fmt.Sprintf("n%d", rng.Intn(universe)), fmt.Sprintf("x%d", rng.Intn(universe)), ""} {
				want, wantOK := oracle[name]
				got, ok := d.DeviceOrdinal(name)
				if ok != wantOK || (ok && uint32(got) != want) {
					t.Fatalf("trial %d step %d: DeviceOrdinal(%q) = %d %v, want %d %v", trial, step, name, got, ok, want, wantOK)
				}
				if g, w := d.DeviceContexts(name), oracleCtx[name]; !slices.Equal(g, w) {
					t.Fatalf("trial %d step %d: DeviceContexts(%q) = %v, want %v", trial, step, name, g, w)
				}
			}
		}
		for step := 0; step < 2*universe; step++ {
			name := fmt.Sprintf("n%d", rng.Intn(universe))
			cs := ctxs[rng.Intn(len(ctxs))]
			d.AddDevice(name, cs...)
			if _, ok := oracle[name]; !ok {
				oracle[name] = uint32(len(names))
				names = append(names, name)
			}
			if cs == nil {
				cs = defaultContexts
			}
			oracleCtx[name] = cs
			check(step)
		}
		for name, want := range oracle {
			if got, ok := d.DeviceOrdinal(name); !ok || uint32(got) != want {
				t.Fatalf("trial %d: DeviceOrdinal(%q) = %d %v, want %d", trial, name, got, ok, want)
			}
		}
		var order []string
		d.EachDevice(func(ord int, name string) { order = append(order, name) })
		if !slices.Equal(order, names) {
			t.Fatalf("trial %d: EachDevice order differs from declaration order", trial)
		}
	}
}

// TestEnvVarIndexMatchesMap declares environment variables in random
// order, repeats with new levels included, and checks the domain's
// env-var ordinals, levels and listing against the map they replaced.
func TestEnvVarIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	levels := [][]string{nil, {"a", "b"}, {"lo", "mid", "hi"}}
	for trial := 0; trial < 20; trial++ {
		d := NewDomain()
		oracle := map[string][]string{} // the old variable → levels map
		var names []string              // by ordinal
		universe := 1 + rng.Intn(2000)
		for step := 0; step < 2*universe; step++ {
			name := fmt.Sprintf("v%d", rng.Intn(universe))
			lv := levels[rng.Intn(len(levels))]
			d.AddEnvVar(name, lv...)
			if _, ok := oracle[name]; !ok {
				names = append(names, name)
			}
			oracle[name] = lv
			probe := fmt.Sprintf("v%d", rng.Intn(universe))
			if got, want := d.EnvLevels(probe), oracle[probe]; !slices.Equal(got, want) {
				t.Fatalf("trial %d step %d: EnvLevels(%q) = %v, want %v", trial, step, probe, got, want)
			}
		}
		if n := len(d.envIndex.slots); 2*len(oracle) > n {
			t.Fatalf("trial %d: %d variables in %d slots, over half full", trial, len(oracle), n)
		}
		for ord, name := range names {
			if got, ok := d.envIndex.lookup(d.envNames, name); !ok || int(got) != ord {
				t.Fatalf("trial %d: ordinal of %q = %d %v, want %d", trial, name, got, ok, ord)
			}
		}
		want := slices.Clone(names)
		slices.Sort(want)
		if got := d.EnvVars(); !slices.Equal(got, want) {
			t.Fatalf("trial %d: EnvVars %v, want %v", trial, got, want)
		}
		if d.EnvLevels("absent") != nil {
			t.Fatalf("trial %d: an undeclared variable has levels", trial)
		}
	}
}
