package envsim

import (
	"fmt"
	"sort"
	"strings"
)

// Level is a named band of a continuous variable ("low", "high", ...).
type Level struct {
	Name string
	// UpTo is the exclusive upper bound; the last level's bound is
	// ignored (catches everything above).
	UpTo float64
}

// Discretizer maps continuous environment variables onto the discrete
// values the policy FSM reasons over (§3.2: Temperature=High/Low,
// Smoke=Yes/No, Window=Open/Closed).
type Discretizer struct {
	bands map[string][]Level
}

// NewDiscretizer returns an empty discretizer.
func NewDiscretizer() *Discretizer {
	return &Discretizer{bands: make(map[string][]Level)}
}

// Define sets the bands for a variable; levels must be given in
// ascending bound order.
func (d *Discretizer) Define(varName string, levels ...Level) {
	d.bands[varName] = levels
}

// Value maps one variable reading to its level name, or "" if the
// variable has no bands defined.
func (d *Discretizer) Value(varName string, v float64) string {
	levels := d.bands[varName]
	if len(levels) == 0 {
		return ""
	}
	for _, l := range levels[:len(levels)-1] {
		if v < l.UpTo {
			return l.Name
		}
	}
	return levels[len(levels)-1].Name
}

// Variables lists the variables with bands, sorted.
func (d *Discretizer) Variables() []string {
	out := make([]string, 0, len(d.bands))
	for k := range d.bands {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Discretize maps a snapshot to discrete variable values for every
// variable with defined bands.
func (d *Discretizer) Discretize(s Snapshot) map[string]string {
	out := make(map[string]string, len(d.bands))
	for varName := range d.bands {
		out[varName] = d.Value(varName, s.Get(varName))
	}
	return out
}

// Key renders a discretized state as a stable string key.
func Key(discrete map[string]string) string {
	names := make([]string, 0, len(discrete))
	for k := range discrete {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%s", n, discrete[n])
	}
	return strings.Join(parts, ",")
}

// StandardDiscretizer covers the standard home variables with the
// bands the paper's examples use.
func StandardDiscretizer() *Discretizer {
	d := NewDiscretizer()
	d.Define(VarTemperature,
		Level{Name: "low", UpTo: 18},
		Level{Name: "normal", UpTo: 27},
		Level{Name: "high"},
	)
	d.Define(VarSmoke,
		Level{Name: "no", UpTo: 0.2},
		Level{Name: "yes"},
	)
	d.Define(VarOccupancy,
		Level{Name: "away", UpTo: 0.5},
		Level{Name: "home"},
	)
	d.Define(VarWindowOpen,
		Level{Name: "closed", UpTo: 0.5},
		Level{Name: "open"},
	)
	d.Define(VarLight,
		Level{Name: "dark", UpTo: 100},
		Level{Name: "lit"},
	)
	return d
}
