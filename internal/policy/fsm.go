package policy

import (
	"fmt"
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
	out := make(map[string]Posture, f.Domain.deviceCount())
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
	f.Domain.eachDevice(func(dev string) {
		if w := best[dev]; w != nil {
			out[dev] = w.posture
		} else {
			out[dev] = Posture{}
		}
	})
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

// Conflict reports two same-priority rules that can both match some
// state yet assign the same device incompatible postures. (Merge
// handles compatible overlaps; a conflict means merging is still
// order-dependent or semantically contradictory — here: differing
// Isolate flags, or one blocking a command the other's modules must
// pass.)
type Conflict struct {
	RuleA, RuleB string
	Device       string
	Example      State
	Reason       string
}

// Conflicts analyzes all rule pairs.
func (f *FSM) Conflicts() []Conflict {
	var out []Conflict
	for i := 0; i < len(f.rules); i++ {
		for j := i + 1; j < len(f.rules); j++ {
			a, b := f.rules[i], f.rules[j]
			if a.Device != b.Device || a.Priority != b.Priority {
				continue
			}
			ex, compatible := jointState(f.Domain, a, b)
			if !compatible {
				continue
			}
			if reason := incompatible(a.Posture, b.Posture); reason != "" {
				out = append(out, Conflict{
					RuleA: a.Name, RuleB: b.Name, Device: a.Device,
					Example: ex, Reason: reason,
				})
			}
		}
	}
	return out
}

// jointState finds a state satisfying both rules' conditions, if the
// conjunction is satisfiable.
func jointState(d *Domain, a, b Rule) (State, bool) {
	required := map[string]string{}
	for _, c := range append(append([]Condition{}, a.Conditions...), b.Conditions...) {
		if prev, ok := required[c.Var]; ok && prev != c.Value {
			return State{}, false
		}
		required[c.Var] = c.Value
	}
	s := d.defaultState()
	for v, val := range required {
		if name, ok := strings.CutPrefix(v, "dev:"); ok {
			s.Contexts[name] = SecurityContext(val)
		} else if name, ok := strings.CutPrefix(v, "env:"); ok {
			s.Env[name] = val
		}
	}
	return s, true
}

// incompatible explains why two postures cannot merge cleanly ("" if
// they can).
func incompatible(p, q Posture) string {
	if p.Isolate != q.Isolate {
		return "one rule isolates the device, the other serves it"
	}
	// A command blocked by one but required passable by the other's
	// context-gate config is contradictory.
	blocked := map[string]bool{}
	for _, c := range p.BlockCommands {
		blocked[c] = true
	}
	for _, m := range q.Modules {
		if m.Kind == "context-gate" {
			if allow, ok := m.Config["allow"]; ok && blocked[allow] {
				return fmt.Sprintf("command %s both blocked and explicitly allowed", allow)
			}
		}
	}
	for _, c := range q.BlockCommands {
		for _, m := range p.Modules {
			if m.Kind == "context-gate" {
				if allow, ok := m.Config["allow"]; ok && allow == c {
					return fmt.Sprintf("command %s both blocked and explicitly allowed", c)
				}
			}
		}
	}
	return ""
}
