package policy

import (
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// A compiled rule is 12 bytes and each of its conditions 8; the
// strings and postures they name are held once per policy (or once
// per domain), however many rules name them.

// ruleRec is one compiled rule. Its conditions end at condEnd in the
// policy's conds and start where the previous record's end.
type ruleRec struct {
	device  varRef
	verdict uint32 // index into symbols.verdicts
	condEnd uint32
}

// cond is one compiled condition: the variable must hold the value.
type cond struct {
	v   varRef
	val uint32 // index into symbols.values
}

// varRef names a device or variable: its kind in the top two bits, an
// ordinal below. refDevice and refEnv ordinals are the full domain's;
// a refExtra ordinal indexes the policy's table of names the domain
// did not declare when the rule was compiled.
type varRef uint32

const (
	refDevice varRef = iota << 30
	refEnv
	refExtra
	// refNone marks an undeclared entry whose variable has neither
	// prefix; it never holds.
	refNone

	refOrdinal = 1<<30 - 1
)

// makeRef builds a reference; the domain or table holds at most 2³⁰
// names of a kind.
func makeRef(kind varRef, ord uint32) varRef {
	if ord > refOrdinal {
		panic("policy: more than 2^30 names of one kind")
	}
	return kind | varRef(ord)
}

func (r varRef) kind() varRef { return r &^ refOrdinal }
func (r varRef) ordinal() int { return int(r & refOrdinal) }

// prefix is the Var prefix of a kind: "" for refNone.
func (r varRef) prefix() string { return [...]string{"dev:", "env:", "", ""}[r>>30] }

// extraVar is a name the domain did not declare when a rule was
// compiled: a device or env var (kind refDevice or refEnv, name bare),
// or a variable with neither prefix (refNone, name as written).
type extraVar struct {
	kind varRef
	name string
}

// verdict is what a matching rule contributes: its priority and
// posture.
type verdict struct {
	priority int
	posture  Posture
}

// symbols holds a policy's interned values, verdicts and undeclared
// names. A subset shares the tables, capacity-clipped, and builds its
// own indexes over them on its first AddRule.
type symbols struct {
	values   []string
	verdicts []verdict
	extra    []extraVar

	valueAt   map[string]uint32
	verdictAt map[string]uint32
	extraAt   map[extraVar]uint32
}

// shared returns the tables for a subset to read.
func (s *symbols) shared() symbols {
	return symbols{values: slices.Clip(s.values), verdicts: slices.Clip(s.verdicts), extra: slices.Clip(s.extra)}
}

// value interns a condition value.
func (s *symbols) value(v string) uint32 {
	// Rules come in runs with the same value: check the newest first.
	if n := len(s.values); n > 0 && s.values[n-1] == v {
		return uint32(n - 1)
	}
	if s.valueAt == nil {
		s.valueAt = make(map[string]uint32, len(s.values))
		for i, x := range s.values {
			s.valueAt[x] = uint32(i)
		}
	}
	if i, ok := s.valueAt[v]; ok {
		return i
	}
	i := uint32(len(s.values))
	v = strings.Clone(v)
	s.values = append(s.values, v)
	s.valueAt[v] = i
	return i
}

// verdict interns a (priority, posture) pair. Pairs are interned only
// when identical — same order, same nil-ness — so Lookup returns what
// the caller wrote.
func (s *symbols) verdict(priority int, p Posture) uint32 {
	// Rules come in runs with the same verdict: compare with the newest
	// before rendering a key.
	if n := len(s.verdicts); n > 0 && s.verdicts[n-1].priority == priority && samePosture(s.verdicts[n-1].posture, p) {
		return uint32(n - 1)
	}
	if s.verdictAt == nil {
		s.verdictAt = make(map[string]uint32, len(s.verdicts))
		for i, v := range s.verdicts {
			s.verdictAt[verdictKey(v.priority, v.posture)] = uint32(i)
		}
	}
	key := verdictKey(priority, p)
	if i, ok := s.verdictAt[key]; ok {
		return i
	}
	i := uint32(len(s.verdicts))
	s.verdicts = append(s.verdicts, verdict{priority: priority, posture: clonePosture(p)})
	s.verdictAt[key] = i
	return i
}

// undeclared interns a name the domain does not declare.
func (s *symbols) undeclared(e extraVar) varRef {
	if s.extraAt == nil {
		s.extraAt = make(map[extraVar]uint32, len(s.extra))
		for i, x := range s.extra {
			s.extraAt[x] = uint32(i)
		}
	}
	if i, ok := s.extraAt[e]; ok {
		return makeRef(refExtra, i)
	}
	i := uint32(len(s.extra))
	e.name = strings.Clone(e.name)
	s.extra = append(s.extra, e)
	s.extraAt[e] = i
	return makeRef(refExtra, i)
}

// refName returns a reference's prefix and name.
func (f *FSM) refName(r varRef) (prefix, name string) {
	switch r.kind() {
	case refDevice:
		return "dev:", f.root.deviceNames[r.ordinal()]
	case refEnv:
		return "env:", f.root.envNames[r.ordinal()]
	}
	e := f.sym.extra[r.ordinal()]
	return e.kind.prefix(), e.name
}

// canonicalDevice returns the device ordinal an undeclared device has
// since been declared under, so rules compiled before and after the
// declaration resolve to one device.
func (f *FSM) canonicalDevice(r varRef) varRef {
	if r.kind() != refExtra {
		return r
	}
	if e := f.sym.extra[r.ordinal()]; e.kind == refDevice {
		if ord, ok := f.root.devices.lookup(f.root.deviceNames, e.name); ok {
			return makeRef(refDevice, ord)
		}
	}
	return r
}

// holds evaluates a conjunction of compiled conditions against s.
func (f *FSM) holds(conds []cond, s State) bool {
	for _, c := range conds {
		var got string
		switch c.v.kind() {
		case refDevice:
			got = string(s.Contexts[f.root.deviceNames[c.v.ordinal()]])
		case refEnv:
			got = s.Env[f.root.envNames[c.v.ordinal()]]
		default:
			switch e := f.sym.extra[c.v.ordinal()]; e.kind {
			case refDevice:
				got = string(s.Contexts[e.name])
			case refEnv:
				got = s.Env[e.name]
			default:
				return false
			}
		}
		if got != f.sym.values[c.val] {
			return false
		}
	}
	return true
}

// samePosture reports whether p and q are identical: equal under
// reflect.DeepEqual, NaN rates aside.
func samePosture(p, q Posture) bool {
	if p.Isolate != q.Isolate || math.Float64bits(p.RateLimit) != math.Float64bits(q.RateLimit) ||
		(p.BlockCommands == nil) != (q.BlockCommands == nil) || !slices.Equal(p.BlockCommands, q.BlockCommands) ||
		(p.Modules == nil) != (q.Modules == nil) || len(p.Modules) != len(q.Modules) {
		return false
	}
	for i, m := range p.Modules {
		n := q.Modules[i]
		if m.Kind != n.Kind || (m.Config == nil) != (n.Config == nil) || !maps.Equal(m.Config, n.Config) {
			return false
		}
	}
	return true
}

// verdictKey renders a (priority, posture) pair so that two pairs get
// the same key exactly when samePosture holds and the priorities are
// equal.
func verdictKey(priority int, p Posture) string {
	var b strings.Builder
	str := func(s string) {
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	list := func(isNil bool, n int) {
		if isNil {
			b.WriteByte('-')
		} else {
			b.WriteString(strconv.Itoa(n))
		}
		b.WriteByte('[')
	}
	b.WriteString(strconv.Itoa(priority))
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(math.Float64bits(p.RateLimit), 16))
	b.WriteString(strconv.FormatBool(p.Isolate))
	list(p.BlockCommands == nil, len(p.BlockCommands))
	for _, c := range p.BlockCommands {
		str(c)
	}
	list(p.Modules == nil, len(p.Modules))
	for _, m := range p.Modules {
		str(m.Kind)
		list(m.Config == nil, len(m.Config))
		keys := make([]string, 0, len(m.Config))
		for k := range m.Config {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			str(k)
			str(m.Config[k])
		}
	}
	return b.String()
}

// clonePosture copies a posture's slices and maps, capacity-clipped,
// so the policy holds nothing its caller may still change.
func clonePosture(p Posture) Posture {
	p.BlockCommands = slices.Clip(slices.Clone(p.BlockCommands))
	p.Modules = slices.Clip(slices.Clone(p.Modules))
	for i := range p.Modules {
		p.Modules[i].Config = maps.Clone(p.Modules[i].Config)
	}
	return p
}
