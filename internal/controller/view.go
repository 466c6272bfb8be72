// Package controller implements the IoTSec control plane (§5.1): a
// context monitor that folds device events, anomaly alerts and
// environment readings into a global system-state view that is itself
// the versioned, strongly consistent store critical security state
// needs; interaction-frequency partitioning; and the hierarchical
// local/global controller split that keeps frequent interactions off
// the global coordination path.
package controller

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/ids"
	"iotsec/internal/journal"
	"iotsec/internal/policy"
	"iotsec/internal/telemetry"
)

// ViewChange describes one state-variable update.
type ViewChange struct {
	// Var uses the policy convention: "dev:<name>" or "env:<name>".
	Var string
	// Value is the new context/level.
	Value string
	// Version is the view version the change committed at.
	Version uint64
	// Reason explains the transition (event kind, alert sid, ...).
	Reason string
	When   time.Time
	// TraceID is the causal chain that carried the change (0 when the
	// mutation arrived outside any trace).
	TraceID uint64
}

// ViewObserver is notified of committed changes in order, under the
// context (and therefore trace) that carried the mutation. Must not
// block.
type ViewObserver func(ctx context.Context, c ViewChange)

// View is the context monitor and the versioned store in one: the
// authoritative global system state Sk. Every mutation commits under
// one mutex and takes the next version, so observers see a single
// total order — the consistency §5.1 demands for critical security
// state.
type View struct {
	mu        sync.RWMutex
	version   uint64
	contexts  vars[policy.SecurityContext]
	env       vars[string]
	observers []ViewObserver
	failures  map[string]int // allocated on first use
}

// vars holds one namespace of a view's variables. A name in scope (a
// local's partition devices or its rules' env vars: sorted,
// duplicate-free, shared with whoever built them) keeps its value in
// slots at its position in that list; any other name, and every name of
// a view with no scope, keeps it in extra. A slot's set flag tells a
// value committed to "" over an earlier one, which stays a variable of
// the view, from a value never committed.
type vars[T ~string] struct {
	scope []string
	slots []T    // allocated on the first commit to a scoped name
	set   []bool // slots[i] was committed
	n     int    // set flags raised
	extra map[string]T
}

// get reads a variable and whether it was ever committed.
func (s *vars[T]) get(name string) (T, bool) {
	if i, ok := slices.BinarySearch(s.scope, name); ok {
		if s.slots == nil || !s.set[i] {
			return "", false
		}
		return s.slots[i], true
	}
	val, ok := s.extra[name]
	return val, ok
}

// commit writes a variable, reporting false when it already held value
// (a variable never committed holds "").
func (s *vars[T]) commit(name string, value T) bool {
	if i, ok := slices.BinarySearch(s.scope, name); ok {
		if s.slots == nil {
			s.slots, s.set = make([]T, len(s.scope)), make([]bool, len(s.scope))
		}
		if s.slots[i] == value {
			return false
		}
		if !s.set[i] {
			s.set[i] = true
			s.n++
		}
		s.slots[i] = value
		return true
	}
	if s.extra[name] == value {
		return false
	}
	if s.extra == nil {
		s.extra = make(map[string]T)
	}
	s.extra[name] = value
	return true
}

// len counts the committed variables.
func (s *vars[T]) len() int { return s.n + len(s.extra) }

// each calls fn with every committed variable, in no fixed order.
func (s *vars[T]) each(fn func(name string, value T)) {
	for i, set := range s.set {
		if set {
			fn(s.scope[i], s.slots[i])
		}
	}
	for name, val := range s.extra {
		fn(name, val)
	}
}

// bruteForceThreshold flips a device to suspicious after this many
// consecutive auth failures.
const bruteForceThreshold = 5

// NewView builds an empty view.
func NewView() *View { return &View{} }

// Observe registers a change observer.
func (v *View) Observe(o ViewObserver) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.observers = append(v.observers, o)
}

// SetDeviceContext transitions a device's security context. ctx
// carries the causal trace of whatever triggered the transition.
func (v *View) SetDeviceContext(ctx context.Context, deviceName string, sc policy.SecurityContext, reason string) {
	v.apply(ctx, "dev:"+deviceName, string(sc), reason)
}

// SetEnv commits an environment level.
func (v *View) SetEnv(ctx context.Context, envVar, level, reason string) {
	v.apply(ctx, "env:"+envVar, level, reason)
}

// commitLocked writes one variable and returns the version it took, or
// 0 when the value is unchanged (idempotence: nothing commits, nobody
// is notified). Callers hold v.mu.
func (v *View) commitLocked(varName, value string) uint64 {
	var changed bool
	if name, ok := strings.CutPrefix(varName, "dev:"); ok {
		changed = v.contexts.commit(name, policy.SecurityContext(value))
	} else if name, ok := strings.CutPrefix(varName, "env:"); ok {
		changed = v.env.commit(name, value)
	}
	if !changed {
		return 0
	}
	v.version++
	return v.version
}

// apply commits a change and notifies observers.
func (v *View) apply(ctx context.Context, varName, value, reason string) {
	v.mu.Lock()
	version := v.commitLocked(varName, value)
	if version == 0 {
		v.mu.Unlock()
		return
	}
	observers := append([]ViewObserver(nil), v.observers...)
	v.mu.Unlock()

	mViewChanges.Inc()
	change := ViewChange{
		Var: varName, Value: value, Version: version, Reason: reason,
		When: time.Now(), TraceID: telemetry.TraceID(ctx),
	}
	device := ""
	if name, ok := strings.CutPrefix(varName, "dev:"); ok {
		device = name
	}
	journal.Record(ctx, journal.TypeViewChange, journal.Debug, device, formatViewChange(change))
	for _, o := range observers {
		o(ctx, change)
	}
}

// formatViewChange renders a committed change as its journal line,
// "v<version> <var> = <value> (<reason>)". Failover recovery replays
// these lines, and values and reasons carry device-reported (so
// attacker-influenced) text: a var or value the plain form would split
// in the wrong place is written as a Go quoted string. The reason runs
// to the final ")" and needs no quoting.
func formatViewChange(c ViewChange) string {
	b := make([]byte, 0, 128)
	b = append(b, 'v')
	b = strconv.AppendUint(b, c.Version, 10)
	b = append(b, ' ')
	b = appendField(b, c.Var, " = ")
	b = appendField(b, c.Value, " (")
	b = append(b, c.Reason...)
	b = append(b, ')')
	return string(b)
}

// appendField appends s and the sep that ends it: s as is when a reader
// cutting at the first sep recovers exactly s, quoted otherwise.
func appendField(b []byte, s, sep string) []byte {
	if strings.HasPrefix(s, `"`) || strings.Index(s+sep, sep) != len(s) {
		b = strconv.AppendQuote(b, s)
	} else {
		b = append(b, s...)
	}
	return append(b, sep...)
}

// parseViewChange inverts formatViewChange, recovering Version, Var,
// Value and Reason.
func parseViewChange(detail string) (c ViewChange, ok bool) {
	rest, ok := strings.CutPrefix(detail, "v")
	if !ok {
		return c, false
	}
	digits, rest, ok := strings.Cut(rest, " ")
	if !ok {
		return c, false
	}
	var err error
	if c.Version, err = strconv.ParseUint(digits, 10, 64); err != nil {
		return c, false
	}
	if c.Var, rest, ok = cutField(rest, " = "); !ok {
		return c, false
	}
	if c.Value, rest, ok = cutField(rest, " ("); !ok {
		return c, false
	}
	c.Reason, ok = strings.CutSuffix(rest, ")")
	return c, ok
}

// cutField reads one plain-or-quoted field and the sep that follows it.
func cutField(s, sep string) (field, rest string, ok bool) {
	if !strings.HasPrefix(s, `"`) {
		return strings.Cut(s, sep)
	}
	quoted, err := strconv.QuotedPrefix(s)
	if err != nil {
		return "", "", false
	}
	if field, err = strconv.Unquote(quoted); err != nil {
		return "", "", false
	}
	rest, ok = strings.CutPrefix(s[len(quoted):], sep)
	return field, rest, ok
}

// DeviceContext reads a device's context (normal when unknown).
func (v *View) DeviceContext(deviceName string) policy.SecurityContext {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if c, ok := v.contexts.get(deviceName); ok {
		return c
	}
	return policy.ContextNormal
}

// Env reads an environment level.
func (v *View) Env(envVar string) string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	val, _ := v.env.get(envVar)
	return val
}

// Vars snapshots every committed variable in policy convention
// ("dev:<name>" / "env:<name>" → value) — the checkpointable state.
func (v *View) Vars() map[string]string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]string, v.contexts.len()+v.env.len())
	v.contexts.each(func(dev string, sc policy.SecurityContext) { out["dev:"+dev] = string(sc) })
	v.env.each(func(name, val string) { out["env:"+name] = val })
	return out
}

// Restore bulk-loads variables into the view WITHOUT notifying
// observers — recovery seeding from a checkpoint, where the caller
// runs one explicit reconcile afterwards instead of paying one
// reconcile per restored variable. Unchanged values are skipped
// (idempotent, so checkpoint + journal-replay overlap is harmless).
// Returns the view version after the load: nothing observes the
// versions in between, so the map's order does not matter.
func (v *View) Restore(vars map[string]string) uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	for varName, value := range vars {
		v.commitLocked(varName, value)
	}
	return v.version
}

// State materializes the current policy.State.
func (v *View) State() policy.State {
	v.mu.RLock()
	defer v.mu.RUnlock()
	s := policy.NewState()
	v.contexts.each(func(dev string, sc policy.SecurityContext) { s.Contexts[dev] = sc })
	v.env.each(func(name, val string) { s.Env[name] = val })
	return s
}

// Version reports the newest committed version.
func (v *View) Version() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.version
}

// The event→variable rule and the naming convention behind it. A
// device's report of "attr=value" moves the env variable
// "<device>_<attr>" so policies can condition on it; deviceEnvVar
// builds that name and envVarReporter inverts it.

// eventVar names the variable a device event can move and the value it
// moves it to; varName is "" for events that move none (auth success,
// commands, reports without "attr=value"). Whether an auth failure
// moves it yet is HandleDeviceEvent's threshold, not the rule's.
func eventVar(e device.Event) (varName, value string) {
	switch e.Kind {
	case device.EventBackdoorAccess, device.EventAuthFailure:
		return "dev:" + e.Device, string(policy.ContextSuspicious)
	case device.EventStateChange, device.EventSensor:
		if attr, val, ok := strings.Cut(e.Detail, "="); ok {
			return deviceEnvVar(e.Device, attr), val
		}
	}
	return "", ""
}

// deviceEnvVar is the view variable for a device-reported attribute.
func deviceEnvVar(deviceName, attr string) string {
	return "env:" + deviceName + "_" + attr
}

// envVarReporter guesses the device whose report moves an env variable
// (given without its "env:" prefix): everything before the last "_".
// A guess, because environment variables share the namespace.
func envVarReporter(envName string) (deviceName string, ok bool) {
	i := strings.LastIndex(envName, "_")
	if i <= 0 {
		return "", false
	}
	return envName[:i], true
}

// HandleDeviceEvent folds a device event into the view, applying the
// standard escalation rules:
//
//   - backdoor access → suspicious immediately (Figure 3's trigger)
//   - ≥ bruteForceThreshold consecutive auth failures → suspicious
//   - device state changes surface as env variables
//     "<device>_<attr>" so policies can condition on them
func (v *View) HandleDeviceEvent(ctx context.Context, e device.Event) {
	varName, value := eventVar(e)
	v.fold(ctx, e, varName, value)
}

// fold is HandleDeviceEvent given eventVar's answer for e: the
// hierarchy routes on that answer too, and asks once per event.
func (v *View) fold(ctx context.Context, e device.Event, varName, value string) {
	reason := "device report"
	switch e.Kind {
	case device.EventBackdoorAccess:
		reason = "backdoor access: " + e.Detail
	case device.EventAuthFailure:
		v.mu.Lock()
		if v.failures == nil {
			v.failures = make(map[string]int)
		}
		v.failures[e.Device]++
		n := v.failures[e.Device]
		v.mu.Unlock()
		if n < bruteForceThreshold {
			return
		}
		reason = fmt.Sprintf("brute force: %d consecutive auth failures", n)
	case device.EventAuthSuccess:
		v.mu.Lock()
		delete(v.failures, e.Device)
		v.mu.Unlock()
	}
	if varName != "" {
		v.apply(ctx, varName, value, reason)
	}
}

// HandleAlert folds an IDS alert into the view: any signature match
// against a device marks it suspicious; block-action matches mark it
// compromised.
func (v *View) HandleAlert(ctx context.Context, deviceName string, a ids.Alert) {
	sc := policy.ContextSuspicious
	if a.Action == ids.ActionBlock {
		sc = policy.ContextCompromised
	}
	v.SetDeviceContext(ctx, deviceName, sc, fmt.Sprintf("ids sid=%d %s", a.SID, a.Msg))
}

// HandleAnomaly folds an anomaly detection into the view.
func (v *View) HandleAnomaly(ctx context.Context, a ids.Anomaly) {
	v.SetDeviceContext(ctx, a.Device, policy.ContextSuspicious,
		fmt.Sprintf("anomaly %s: %s", a.Kind, a.Detail))
}
