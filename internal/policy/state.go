// Package policy implements the paper's §3.2 security-policy
// abstraction: the system state is the product of every device's
// security context and every environment variable's discrete level,
// and each state assigns every device a security posture (which
// µmbox modules and rules its traffic must traverse). The package
// provides the deliberately brute-force FSM, the state-explosion
// arithmetic that motivates pruning, the two pruning strategies the
// paper sketches (independence and posture-equivalence collapsing),
// conflict detection, and the IFTTT-recipe strawman of §3.1 with its
// failure modes.
package policy

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// SecurityContext is a device's security-relevant condition.
type SecurityContext string

// Standard security contexts (domains may extend these).
const (
	ContextNormal      SecurityContext = "normal"
	ContextSuspicious  SecurityContext = "suspicious"
	ContextCompromised SecurityContext = "compromised"
	ContextUnpatched   SecurityContext = "unpatched"
)

// Domain declares the variables the FSM ranges over: per-device
// security contexts and discrete environment variables. (Device
// operational attributes like alarm=on are modeled as environment
// variables of the state space; they are world state just like
// temperature.)
//
// A domain built by NewDomain owns its declarations. Each name maps to
// a small index into the distinct context (or level) lists, so a fleet
// whose devices share one context list stores that list once. A domain
// built by Restrict owns nothing: it names a subset of its parent's
// variables and reads their values from the parent.
//
// Every device has an ordinal: a dense index, 0 to DeviceCount()-1,
// that callers may key per-device slices by. A device takes the next
// ordinal when first declared and keeps it when declared again; in a
// restricted domain, a device's ordinal is its position in the sorted
// scope.
type Domain struct {
	devices     map[string]uint32 // device → ordinal
	deviceNames []string          // ordinal → device
	deviceCtx   []uint32          // ordinal → index into contexts
	envVars     map[string]uint32 // variable → index into levels
	contexts    valueLists[SecurityContext]
	levels      valueLists[string]

	// parent is set on a restricted domain, which declares exactly
	// scopeDevices and scopeEnvVars (sorted, duplicate-free, shared with
	// whoever built them).
	parent       *Domain
	scopeDevices []string
	scopeEnvVars []string
}

// defaultContexts is what AddDevice declares when given no contexts.
var defaultContexts = []SecurityContext{ContextNormal, ContextSuspicious, ContextCompromised}

// NewDomain returns an empty domain.
func NewDomain() *Domain {
	return &Domain{
		devices: make(map[string]uint32),
		envVars: make(map[string]uint32),
	}
}

// Restrict returns a read-only domain declaring only the named devices
// and environment variables, each with the values d gives it. A device
// d does not declare gets the default contexts, as AddDevice would give
// it; a variable d does not declare gets no levels. Nothing is copied
// when a name list is already sorted and duplicate-free: the result
// keeps that slice, so the caller must not modify it afterwards, and it
// reads contexts and levels from d on every call. AddDevice and
// AddEnvVar panic on the result.
func (d *Domain) Restrict(devices, envVars []string) *Domain {
	return &Domain{parent: d, scopeDevices: sortedSet(devices), scopeEnvVars: sortedSet(envVars)}
}

// sortedSet returns names itself, capacity-clipped, when it is sorted
// and duplicate-free, and a sorted duplicate-free copy otherwise.
func sortedSet(names []string) []string {
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			sorted := slices.Clone(names)
			slices.Sort(sorted)
			return slices.Clip(slices.Compact(sorted))
		}
	}
	return slices.Clip(names)
}

// inScope reports whether a sorted name list holds name.
func inScope(names []string, name string) bool {
	_, ok := slices.BinarySearch(names, name)
	return ok
}

// AddDevice declares a device and its possible security contexts
// (default: normal/suspicious/compromised if none given).
func (d *Domain) AddDevice(name string, contexts ...SecurityContext) {
	if d.parent != nil {
		panic("policy: AddDevice on a restricted domain")
	}
	if len(contexts) == 0 {
		contexts = defaultContexts
	}
	ctx := d.contexts.intern(contexts)
	if ord, ok := d.devices[name]; ok {
		d.deviceCtx[ord] = ctx
		return
	}
	d.devices[name] = uint32(len(d.deviceNames))
	d.deviceNames = append(d.deviceNames, name)
	d.deviceCtx = append(d.deviceCtx, ctx)
}

// AddEnvVar declares an environment variable and its levels.
func (d *Domain) AddEnvVar(name string, levels ...string) {
	if d.parent != nil {
		panic("policy: AddEnvVar on a restricted domain")
	}
	d.envVars[name] = d.levels.intern(levels)
}

// EachDevice calls fn with every declared device and its ordinal, in
// ordinal order.
func (d *Domain) EachDevice(fn func(ordinal int, name string)) {
	for ord, name := range d.names() {
		fn(ord, name)
	}
}

// names lists the declared devices by ordinal. The slice is the
// domain's own: read it, do not modify it.
func (d *Domain) names() []string {
	if d.parent != nil {
		return d.scopeDevices
	}
	return d.deviceNames
}

// DeviceOrdinal reports a declared device's ordinal.
func (d *Domain) DeviceOrdinal(name string) (int, bool) {
	if d.parent != nil {
		return slices.BinarySearch(d.scopeDevices, name)
	}
	ord, ok := d.devices[name]
	return int(ord), ok
}

// eachEnvVar calls fn with every declared environment variable, in no
// fixed order.
func (d *Domain) eachEnvVar(fn func(name string)) {
	if d.parent != nil {
		for _, name := range d.scopeEnvVars {
			fn(name)
		}
		return
	}
	for name := range d.envVars {
		fn(name)
	}
}

// DeviceCount reports how many devices the domain declares; their
// ordinals run from 0 to DeviceCount()-1.
func (d *Domain) DeviceCount() int { return len(d.names()) }

// Devices lists declared devices, sorted.
func (d *Domain) Devices() []string {
	out := slices.Clone(d.names())
	if d.parent == nil {
		slices.Sort(out)
	}
	return out
}

// EnvVars lists declared environment variables, sorted.
func (d *Domain) EnvVars() []string {
	out := make([]string, 0)
	d.eachEnvVar(func(name string) { out = append(out, name) })
	sort.Strings(out)
	return out
}

// DeviceContexts returns a device's context domain (nil when the
// domain does not declare the device). Devices declared with the same
// contexts share the returned slice: it is capacity-clipped, so an
// append copies, and it must not be modified in place.
func (d *Domain) DeviceContexts(name string) []SecurityContext {
	if d.parent != nil {
		if !inScope(d.scopeDevices, name) {
			return nil
		}
		if cs := d.parent.DeviceContexts(name); cs != nil {
			return cs
		}
		return defaultContexts
	}
	ord, ok := d.devices[name]
	if !ok {
		return nil
	}
	return d.contexts.lists[d.deviceCtx[ord]]
}

// EnvLevels returns a variable's level domain (nil when the domain does
// not declare it). Like DeviceContexts, the slice is shared and
// capacity-clipped: read it, do not modify it.
func (d *Domain) EnvLevels(name string) []string {
	if d.parent != nil {
		if !inScope(d.scopeEnvVars, name) {
			return nil
		}
		return d.parent.EnvLevels(name)
	}
	i, ok := d.envVars[name]
	if !ok {
		return nil
	}
	return d.levels.lists[i]
}

// StateCount is the size of the full product space |S| = ∏|Ci|×∏|Ej| —
// the combinatorial explosion of §3.2.
func (d *Domain) StateCount() float64 {
	count := 1.0
	for _, name := range d.names() {
		count *= float64(len(d.DeviceContexts(name)))
	}
	d.eachEnvVar(func(name string) { count *= float64(len(d.EnvLevels(name))) })
	return count
}

// valueLists keeps one backing array per distinct value list, so a
// domain pays for a list once however many names declare it.
type valueLists[T ~string] struct {
	lists [][]T
	index map[string]uint32 // encoded list → position in lists
}

// intern returns the position of vals' list, adding a copy of it when
// it is new.
func (v *valueLists[T]) intern(vals []T) uint32 {
	// Declarations come in runs with the same values: check the newest
	// list before encoding a key.
	if n := len(v.lists); n > 0 && slices.Equal(v.lists[n-1], vals) {
		return uint32(n - 1)
	}
	var key strings.Builder
	for _, s := range vals {
		key.WriteString(strconv.Itoa(len(s)))
		key.WriteByte(':')
		key.WriteString(string(s))
	}
	if i, ok := v.index[key.String()]; ok {
		return i
	}
	if v.index == nil {
		v.index = make(map[string]uint32)
	}
	i := uint32(len(v.lists))
	v.lists = append(v.lists, slices.Clip(slices.Clone(vals)))
	v.index[key.String()] = i
	return i
}

// State is one point of the product space.
type State struct {
	// Contexts maps device → security context.
	Contexts map[string]SecurityContext
	// Env maps environment variable → discrete level.
	Env map[string]string
}

// NewState builds an empty state.
func NewState() State {
	return State{Contexts: make(map[string]SecurityContext), Env: make(map[string]string)}
}

// Clone deep-copies the state.
func (s State) Clone() State {
	c := NewState()
	for k, v := range s.Contexts {
		c.Contexts[k] = v
	}
	for k, v := range s.Env {
		c.Env[k] = v
	}
	return c
}

// Key renders a stable identity string.
func (s State) Key() string {
	parts := make([]string, 0, len(s.Contexts)+len(s.Env))
	for k, v := range s.Contexts {
		parts = append(parts, "dev:"+k+"="+string(v))
	}
	for k, v := range s.Env {
		parts = append(parts, "env:"+k+"="+v)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// String implements fmt.Stringer.
func (s State) String() string { return s.Key() }

// DefaultState is the state with every variable at its first domain
// value, used to complete example states in conflict reports and as a
// baseline in experiments.
func (d *Domain) DefaultState() State { return d.defaultState() }

// defaultState is the state with every variable at its first domain
// value, used to complete example states in conflict reports.
func (d *Domain) defaultState() State {
	s := NewState()
	for _, dev := range d.names() {
		if ctxs := d.DeviceContexts(dev); len(ctxs) > 0 {
			s.Contexts[dev] = ctxs[0]
		}
	}
	d.eachEnvVar(func(v string) {
		if levels := d.EnvLevels(v); len(levels) > 0 {
			s.Env[v] = levels[0]
		}
	})
	return s
}

// EnumerateStates walks the full product space, invoking fn for each
// state; it stops early (returning false) if fn returns false. The
// space is exponential — callers use Limit to bound work.
func (d *Domain) EnumerateStates(limit int, fn func(State) bool) (visited int, complete bool) {
	type variable struct {
		isDevice bool
		name     string
		values   []string
	}
	var vars []variable
	for _, dev := range d.Devices() {
		ctxs := d.DeviceContexts(dev)
		vals := make([]string, len(ctxs))
		for i, c := range ctxs {
			vals[i] = string(c)
		}
		vars = append(vars, variable{isDevice: true, name: dev, values: vals})
	}
	for _, ev := range d.EnvVars() {
		vars = append(vars, variable{name: ev, values: d.EnvLevels(ev)})
	}

	idx := make([]int, len(vars))
	for {
		if limit > 0 && visited >= limit {
			return visited, false
		}
		s := NewState()
		for i, v := range vars {
			if v.isDevice {
				s.Contexts[v.name] = SecurityContext(v.values[idx[i]])
			} else {
				s.Env[v.name] = v.values[idx[i]]
			}
		}
		visited++
		if !fn(s) {
			return visited, false
		}
		// Odometer increment.
		pos := len(vars) - 1
		for pos >= 0 {
			idx[pos]++
			if idx[pos] < len(vars[pos].values) {
				break
			}
			idx[pos] = 0
			pos--
		}
		if pos < 0 {
			return visited, true
		}
	}
}

// FormatCount renders a (possibly astronomically large) state count.
func FormatCount(c float64) string {
	switch {
	case c < 1e6:
		return fmt.Sprintf("%.0f", c)
	case c < 1e9:
		return fmt.Sprintf("%.1fM", c/1e6)
	case c < 1e12:
		return fmt.Sprintf("%.1fG", c/1e9)
	default:
		return fmt.Sprintf("%.2e", c)
	}
}
