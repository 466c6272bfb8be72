package policy

import (
	"sort"
	"strings"
)

// Condition is one equality predicate over a state variable.
type Condition struct {
	// Var uses the "dev:<name>" or "env:<name>" convention. A variable
	// with neither prefix never holds.
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

// Rule assigns a device a posture in every state satisfying all its
// conditions (an empty condition list matches every state — the
// baseline posture).
type Rule struct {
	// Name labels the rule for its author; the compiled policy does not
	// keep it.
	Name       string
	Conditions []Condition
	Device     string
	Posture    Posture
	// Priority orders rules: the highest priority matching rule's
	// posture wins; same-priority postures merge, in rule order.
	Priority int
}

// FSM is the compiled policy: a domain plus rules. Lookup resolves
// the posture of every device in a given state.
//
// Each rule is compiled when it is added (see compile.go): its device
// and condition variables become ordinals of the domain (of the full
// domain, when Domain is restricted), its posture and priority one
// interned verdict. Nothing the caller allocated for a rule is kept.
// The rules are compiled against Domain, which must not be replaced
// afterwards.
type FSM struct {
	Domain *Domain
	// root is the domain the compiled ordinals index.
	root *Domain
	// rules[0] is a header: rule i (from 0) is rules[i+1], and its
	// conditions are conds[rules[i].condEnd:rules[i+1].condEnd].
	rules []ruleRec
	conds []cond
	sym   symbols
}

// NewFSM builds a policy over the domain holding rules. The rules are
// compiled: the caller's slice is neither kept nor written.
func NewFSM(d *Domain, rules ...Rule) *FSM {
	n := 0
	for _, r := range rules {
		n += len(r.Conditions)
	}
	f := &FSM{
		Domain: d, root: d.root(),
		rules: make([]ruleRec, 1, len(rules)+1),
		conds: make([]cond, 0, n),
	}
	for _, r := range rules {
		f.AddRule(r)
	}
	return f
}

// AddRule compiles and appends a rule.
func (f *FSM) AddRule(r Rule) {
	for _, c := range r.Conditions {
		f.conds = append(f.conds, cond{v: f.condVar(c.Var), val: f.sym.value(c.Value)})
	}
	f.rules = append(f.rules, ruleRec{
		device:  f.deviceRef(r.Device),
		verdict: f.sym.verdict(r.Priority, r.Posture),
		condEnd: uint32(len(f.conds)),
	})
}

// RuleCount reports how many rules the policy holds.
func (f *FSM) RuleCount() int { return len(f.rules) - 1 }

// RuleDevice returns the device rule i (from 0) assigns a posture to.
func (f *FSM) RuleDevice(i int) string {
	_, name := f.refName(f.rules[i+1].device)
	return name
}

// EachVar calls fn with each variable rule i (from 0) conditions on, in
// the rule's order, until fn returns false. prefix is "dev:" or "env:",
// or "" for a variable with neither; prefix+name is the condition's
// Var. A name the domain declares is the domain's own string.
func (f *FSM) EachVar(i int, fn func(prefix, name string) bool) {
	for _, c := range f.conds[f.rules[i].condEnd:f.rules[i+1].condEnd] {
		if !fn(f.refName(c.v)) {
			return
		}
	}
}

// Subset returns a policy over d holding the rules lo to hi-1 for which
// keep (nil: all) holds, in order. d must be f's domain or restrict
// the same full domain. When keep holds for the whole range, the result
// shares that stretch of f's compiled rules; otherwise it holds one
// exact copy of the kept ones. Either way AddRule on one policy never
// changes the other.
func (f *FSM) Subset(d *Domain, lo, hi int, keep func(i int) bool) *FSM {
	if d.root() != f.root {
		panic("policy: Subset over another domain")
	}
	sub := &FSM{Domain: d, root: f.root, sym: f.sym.shared()}
	kept, nconds := 0, 0
	for i := lo; i < hi; i++ {
		if keep == nil || keep(i) {
			kept++
			nconds += int(f.rules[i+1].condEnd - f.rules[i].condEnd)
		}
	}
	if kept == hi-lo {
		// rules[lo] is rule lo-1 (or the header): only its condEnd is
		// read, as the new header.
		end := f.rules[hi].condEnd
		sub.rules = f.rules[lo : hi+1 : hi+1]
		sub.conds = f.conds[:end:end]
		return sub
	}
	sub.rules = make([]ruleRec, 1, kept+1)
	sub.conds = make([]cond, 0, nconds)
	for i := lo; i < hi; i++ {
		if !keep(i) {
			continue
		}
		r := f.rules[i+1]
		sub.conds = append(sub.conds, f.conds[f.rules[i].condEnd:r.condEnd]...)
		r.condEnd = uint32(len(sub.conds))
		sub.rules = append(sub.rules, r)
	}
	return sub
}

// Lookup resolves every declared device's posture in state s: per
// device, the highest-priority matching rules win; equal-priority
// winners merge. Devices with no matching rule get the zero (allow)
// posture. An unmerged posture shares its backing arrays with the
// policy and with every other lookup: read it, do not modify it in
// place.
func (f *FSM) Lookup(s State) map[string]Posture {
	names := f.Domain.names()
	out := make(map[string]Posture, len(names))
	for _, dev := range names {
		out[dev] = Posture{}
	}
	type winner struct {
		device   varRef
		priority int
		posture  Posture
	}
	var (
		wins []winner
		at   map[varRef]int // device → position in wins
	)
	for i := 1; i < len(f.rules); i++ {
		r := f.rules[i]
		if !f.holds(f.conds[f.rules[i-1].condEnd:r.condEnd], s) {
			continue
		}
		v := &f.sym.verdicts[r.verdict]
		dev := f.canonicalDevice(r.device)
		j, seen := at[dev]
		switch {
		case !seen:
			if at == nil {
				at = make(map[varRef]int)
			}
			at[dev] = len(wins)
			wins = append(wins, winner{device: dev, priority: v.priority, posture: v.posture})
		case v.priority > wins[j].priority:
			wins[j].priority, wins[j].posture = v.priority, v.posture
		case v.priority == wins[j].priority:
			wins[j].posture = wins[j].posture.Merge(v.posture)
		}
	}
	// A rule's device the domain does not declare gets no entry.
	for _, w := range wins {
		_, name := f.refName(w.device)
		if _, ok := out[name]; ok {
			out[name] = w.posture
		}
	}
	return out
}

// ReferencedVars lists the state variables any rule conditions on —
// the support of the policy function. Everything else is independent
// and prunable.
func (f *FSM) ReferencedVars() []string {
	seen := map[string]bool{}
	for i := 0; i < f.RuleCount(); i++ {
		f.EachVar(i, func(prefix, name string) bool {
			seen[prefix+name] = true
			return true
		})
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// condVar compiles a condition's variable.
func (f *FSM) condVar(v string) varRef {
	if name, ok := strings.CutPrefix(v, "dev:"); ok {
		return f.deviceRef(name)
	}
	if name, ok := strings.CutPrefix(v, "env:"); ok {
		if ord, ok := f.root.envIndex.lookup(f.root.envNames, name); ok {
			return makeRef(refEnv, ord)
		}
		return f.sym.undeclared(extraVar{kind: refEnv, name: name})
	}
	return f.sym.undeclared(extraVar{kind: refNone, name: v})
}

// deviceRef compiles a device name.
func (f *FSM) deviceRef(name string) varRef {
	if ord, ok := f.root.devices.lookup(f.root.deviceNames, name); ok {
		return makeRef(refDevice, ord)
	}
	return f.sym.undeclared(extraVar{kind: refDevice, name: name})
}
