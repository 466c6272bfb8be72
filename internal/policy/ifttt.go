package policy

import (
	"fmt"
	"strings"
)

// Recipe is the §3.1 IFTTT strawman: "IF <trigger> THEN <action>".
// Recipes capture cross-device interactions but — as the paper
// argues — carry no security context, assume independence, and are
// tedious to reason about. We implement them to measure exactly those
// failures (Table 2 / experiment T2).
type Recipe struct {
	Name string
	// TriggerDevice and TriggerState ("attr=value") name the
	// condition; TriggerDevice may be "env" for environment triggers.
	TriggerDevice string
	TriggerState  string
	// ActionDevice receives ActionCommand when the trigger fires.
	ActionDevice  string
	ActionCommand string
}

// String renders the canonical text form.
func (r Recipe) String() string {
	return fmt.Sprintf("IF %s.%s THEN %s.%s", r.TriggerDevice, r.TriggerState, r.ActionDevice, r.ActionCommand)
}

// opposites maps contradictory command pairs.
var opposites = map[string]string{
	"ON": "OFF", "OFF": "ON",
	"OPEN": "CLOSE", "CLOSE": "OPEN",
	"LOCK": "UNLOCK", "UNLOCK": "LOCK",
}

// RecipeConflict is the §3.1 failure mode: two recipes active in the
// same world state commanding one device to do contradictory things
// (the smoke-alarm vs Sighthound ambiguity).
type RecipeConflict struct {
	RecipeA, RecipeB string
	Device           string
	Commands         [2]string
	// SameTrigger is true when both recipes fire on the identical
	// trigger; false means their triggers are merely independent (so
	// both can hold simultaneously).
	SameTrigger bool
}

// FindRecipeConflicts reports all contradictory pairs. Because
// recipes carry no coordination or priority, ANY two recipes with
// compatible triggers and opposite commands on one device conflict —
// triggers on different devices/attributes can always co-occur.
func FindRecipeConflicts(recipes []Recipe) []RecipeConflict {
	var out []RecipeConflict
	for i := 0; i < len(recipes); i++ {
		for j := i + 1; j < len(recipes); j++ {
			a, b := recipes[i], recipes[j]
			if a.ActionDevice != b.ActionDevice {
				continue
			}
			if opposites[a.ActionCommand] != b.ActionCommand {
				continue
			}
			sameTrigger := a.TriggerDevice == b.TriggerDevice && a.TriggerState == b.TriggerState
			compatible := sameTrigger || !triggersExclusive(a, b)
			if !compatible {
				continue
			}
			out = append(out, RecipeConflict{
				RecipeA: a.Name, RecipeB: b.Name,
				Device:      a.ActionDevice,
				Commands:    [2]string{a.ActionCommand, b.ActionCommand},
				SameTrigger: sameTrigger,
			})
		}
	}
	return out
}

// triggersExclusive reports whether two triggers can never hold at
// once: same device+attribute with different values.
func triggersExclusive(a, b Recipe) bool {
	if a.TriggerDevice != b.TriggerDevice {
		return false
	}
	attrA, valA, _ := strings.Cut(a.TriggerState, "=")
	attrB, valB, _ := strings.Cut(b.TriggerState, "=")
	return attrA == attrB && valA != valB
}

// ToRule converts a recipe into an FSM rule — the paper's upgrade
// path: the action becomes a context-gated allow with everything else
// for that command blocked, making the implicit recipe explicit and
// conflict-checkable. The trigger maps to an environment condition
// "dev_attr=value".
func (r Recipe) ToRule(priority int) Rule {
	envVar := r.TriggerDevice + "_" + strings.SplitN(r.TriggerState, "=", 2)[0]
	val := strings.SplitN(r.TriggerState, "=", 2)[1]
	return Rule{
		Name:       "recipe:" + r.Name,
		Conditions: []Condition{EnvIs(envVar, val)},
		Device:     r.ActionDevice,
		Posture: Posture{
			Modules: []ModuleSpec{{
				Kind:   "context-gate",
				Config: map[string]string{"allow": r.ActionCommand},
			}},
		},
		Priority: priority,
	}
}
