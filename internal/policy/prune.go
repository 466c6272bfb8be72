package policy

import (
	"sort"
	"strings"
)

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
	// referenced space (posture-equivalence collapsing) — the true
	// size of the compiled policy.
	EquivalenceClasses int
	// Enumerated reports how many projected states were walked
	// (equals IndependentStates unless the limit tripped).
	Enumerated int
	// Complete is false if the enumeration limit was hit before
	// covering the projected space.
	Complete bool
}

// Compiled is the pruned lookup structure: posture assignments keyed
// by the projection of the state onto the referenced variables.
// Lookups cost one projection + one map hit regardless of how many
// irrelevant devices the deployment has.
type Compiled struct {
	vars    []string
	proj    projector
	classes map[string]map[string]Posture // projection key → device → posture
	fsm     *FSM
}

// projector renders a state's projection key over a fixed, presorted
// variable list. The prefix-split and sort happen once at Compile
// time, so per-lookup key construction is a single pass with one
// string allocation — this is what lets the compiled form actually
// beat direct FSM evaluation instead of paying a sort per lookup.
type projector struct {
	parts []projPart
	width int // size hint for the key builder
}

type projPart struct {
	prefix string // "dev:<name>=" or "env:<name>="
	name   string
	dev    bool
}

// newProjector builds the key renderer. The variable order (sorted)
// is fixed here; Compile-time inserts and Lookup-time probes use the
// same renderer, so keys always agree.
func newProjector(vars []string) projector {
	sorted := append([]string(nil), vars...)
	sort.Strings(sorted)
	pr := projector{parts: make([]projPart, 0, len(sorted))}
	for _, v := range sorted {
		if name, ok := strings.CutPrefix(v, "dev:"); ok {
			pr.parts = append(pr.parts, projPart{prefix: v + "=", name: name, dev: true})
		} else if name, ok := strings.CutPrefix(v, "env:"); ok {
			pr.parts = append(pr.parts, projPart{prefix: v + "=", name: name})
		}
		pr.width += len(v) + 16
	}
	return pr
}

// key renders the projection of s.
func (pr projector) key(s State) string {
	var b strings.Builder
	b.Grow(pr.width)
	for i, p := range pr.parts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.prefix)
		if p.dev {
			b.WriteString(string(s.Contexts[p.name]))
		} else {
			b.WriteString(s.Env[p.name])
		}
	}
	return b.String()
}

// Compile enumerates the projected space (bounded by limit; 0 = up to
// 1<<20 states) and builds the pruned structure plus its report.
func (f *FSM) Compile(limit int) (*Compiled, PruneReport) {
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

	c := &Compiled{
		vars:    report.ReferencedVars,
		proj:    newProjector(report.ReferencedVars),
		classes: make(map[string]map[string]Posture),
		fsm:     f,
	}
	classKeys := map[string]bool{}
	visited, complete := proj.EnumerateStates(limit, func(s State) bool {
		postures := f.Lookup(s)
		// Drop devices not declared in the projection... they default
		// to allow and do not affect equivalence.
		key := c.proj.key(s)
		relevant := make(map[string]Posture)
		var sig strings.Builder
		for _, dev := range f.Domain.Devices() {
			p := postures[dev]
			relevant[dev] = p
			sig.WriteString(dev)
			sig.WriteByte('=')
			sig.WriteString(p.Key())
			sig.WriteByte('&')
		}
		c.classes[key] = relevant
		classKeys[sig.String()] = true
		return true
	})
	report.Enumerated = visited
	report.Complete = complete
	report.EquivalenceClasses = len(classKeys)
	return c, report
}

// Lookup resolves postures through the pruned structure; states
// differing only in unreferenced variables share one entry. Falls
// back to direct evaluation if the projection was not covered
// (enumeration limit).
func (c *Compiled) Lookup(s State) map[string]Posture {
	key := c.proj.key(s)
	if postures, ok := c.classes[key]; ok {
		return postures
	}
	return c.fsm.Lookup(s)
}

// Size reports the number of stored projected states.
func (c *Compiled) Size() int { return len(c.classes) }
