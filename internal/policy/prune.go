package policy

import "strings"

// PruneReport quantifies the state-space reduction the two §3.2
// strategies achieve on a policy.
type PruneReport struct {
	// FullStates is |S| over the whole domain.
	FullStates float64
	// ReferencedVars is the policy's support.
	ReferencedVars []string
	// IndependentStates is |S| restricted to referenced variables
	// (independence pruning: unreferenced devices/variables factor
	// out).
	IndependentStates float64
	// EquivalenceClasses counts distinct posture assignments over the
	// referenced space (posture-equivalence collapsing) — the number of
	// behaviours the policy actually distinguishes.
	EquivalenceClasses int
	// Enumerated reports how many projected states were walked
	// (equals IndependentStates unless the limit tripped).
	Enumerated int
	// Complete is false if the enumeration limit was hit before
	// covering the projected space.
	Complete bool
}

// Prune enumerates the projected space (bounded by limit; 0 = up to
// 1<<20 states) and reports how far the two §3.2 strategies shrink it.
// Independence holds because Lookup reads only referenced variables:
// states that differ elsewhere resolve to the same postures.
func (f *FSM) Prune(limit int) PruneReport {
	if limit <= 0 {
		limit = 1 << 20
	}
	report := PruneReport{
		FullStates:     f.Domain.StateCount(),
		ReferencedVars: f.ReferencedVars(),
	}

	// Projected domain: only referenced variables.
	var devs, envVars []string
	for _, v := range report.ReferencedVars {
		if name, ok := strings.CutPrefix(v, "dev:"); ok {
			devs = append(devs, name)
		} else if name, ok := strings.CutPrefix(v, "env:"); ok {
			envVars = append(envVars, name)
		}
	}
	proj := f.Domain.Restrict(devs, envVars)
	report.IndependentStates = proj.StateCount()

	classKeys := map[string]bool{}
	visited, complete := proj.EnumerateStates(limit, func(s State) bool {
		postures := f.Lookup(s)
		var sig strings.Builder
		for _, dev := range f.Domain.Devices() {
			sig.WriteString(dev)
			sig.WriteByte('=')
			sig.WriteString(postures[dev].Key())
			sig.WriteByte('&')
		}
		classKeys[sig.String()] = true
		return true
	})
	report.Enumerated = visited
	report.Complete = complete
	report.EquivalenceClasses = len(classKeys)
	return report
}
