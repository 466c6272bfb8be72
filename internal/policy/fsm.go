package policy

import (
	"slices"
	"sort"
	"strings"
)

// Condition is one equality predicate over a state variable.
type Condition struct {
	// Var uses the "dev:<name>" or "env:<name>" convention.
	Var string
	// Value is the required context/level.
	Value string
}

// DeviceIs builds a device-context condition.
func DeviceIs(device string, ctx SecurityContext) Condition {
	return Condition{Var: "dev:" + device, Value: string(ctx)}
}

// EnvIs builds an environment-level condition.
func EnvIs(envVar, level string) Condition {
	return Condition{Var: "env:" + envVar, Value: level}
}

// holds evaluates the condition against a state.
func (c Condition) holds(s State) bool {
	if name, ok := strings.CutPrefix(c.Var, "dev:"); ok {
		return string(s.Contexts[name]) == c.Value
	}
	if name, ok := strings.CutPrefix(c.Var, "env:"); ok {
		return s.Env[name] == c.Value
	}
	return false
}

// Rule assigns a device a posture in every state satisfying all its
// conditions (an empty condition list matches every state — the
// baseline posture).
type Rule struct {
	Name       string
	Conditions []Condition
	Device     string
	Posture    Posture
	// Priority orders rules: the highest priority matching rule's
	// posture wins; same-priority compatible postures merge;
	// same-priority conflicting postures are reported by Conflicts.
	Priority int
}

// matches evaluates the full conjunction.
func (r Rule) matches(s State) bool {
	for _, c := range r.Conditions {
		if !c.holds(s) {
			return false
		}
	}
	return true
}

// FSM is the compiled policy: a domain plus rules. Lookup resolves
// the posture of every device in a given state.
type FSM struct {
	Domain *Domain
	rules  []Rule
}

// NewFSM builds a policy over the domain holding rules. It adopts the
// rules slice rather than copying it, capacity-clipped so AddRule never
// writes into the caller's array; the caller must not modify the rules
// afterwards.
func NewFSM(d *Domain, rules ...Rule) *FSM {
	return &FSM{Domain: d, rules: slices.Clip(rules)}
}

// AddRule appends a rule.
func (f *FSM) AddRule(r Rule) { f.rules = append(f.rules, r) }

// Rules lists the rules.
func (f *FSM) Rules() []Rule { return f.rules }

// Lookup resolves every declared device's posture in state s: per
// device, the highest-priority matching rules win; equal-priority
// winners merge. Devices with no matching rule get the zero (allow)
// posture.
func (f *FSM) Lookup(s State) map[string]Posture {
	out := make(map[string]Posture, f.Domain.DeviceCount())
	type winner struct {
		priority int
		posture  Posture
		found    bool
	}
	best := make(map[string]*winner)
	for _, r := range f.rules {
		if !r.matches(s) {
			continue
		}
		w := best[r.Device]
		switch {
		case w == nil || r.Priority > w.priority:
			best[r.Device] = &winner{priority: r.Priority, posture: r.Posture, found: true}
		case r.Priority == w.priority:
			w.posture = w.posture.Merge(r.Posture)
		}
	}
	for _, dev := range f.Domain.names() {
		if w := best[dev]; w != nil {
			out[dev] = w.posture
		} else {
			out[dev] = Posture{}
		}
	}
	return out
}

// ReferencedVars lists the state variables any rule conditions on —
// the support of the policy function. Everything else is independent
// and prunable.
func (f *FSM) ReferencedVars() []string {
	seen := map[string]bool{}
	for _, r := range f.rules {
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
