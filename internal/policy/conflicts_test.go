package policy

import (
	"fmt"
	"strings"
)

// The pairwise conflict analysis: a reference the policy tests check
// rule sets against, in the caller's shape (the compiled policy keeps
// no rule names). Nothing loads a policy through it yet.

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

// conflicts analyzes all pairs of rules over d.
func conflicts(d *Domain, rules ...Rule) []Conflict {
	var out []Conflict
	for i := 0; i < len(rules); i++ {
		for j := i + 1; j < len(rules); j++ {
			a, b := rules[i], rules[j]
			if a.Device != b.Device || a.Priority != b.Priority {
				continue
			}
			ex, compatible := jointState(d, a, b)
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
