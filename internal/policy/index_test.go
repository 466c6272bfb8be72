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
