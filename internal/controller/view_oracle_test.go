package controller

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/ids"
	"iotsec/internal/policy"
	"iotsec/internal/telemetry"
)

// mapView is View as it stood with one string-keyed map per namespace,
// kept as the oracle for the slot-backed view. It journals nothing and
// takes no lock: the tests drive it from one goroutine.
type mapView struct {
	version   uint64
	contexts  map[string]policy.SecurityContext
	env       map[string]string
	observers []ViewObserver
	failures  map[string]int
}

func newMapView() *mapView {
	return &mapView{
		contexts: make(map[string]policy.SecurityContext),
		env:      make(map[string]string),
		failures: make(map[string]int),
	}
}

func (v *mapView) commitLocked(varName, value string) uint64 {
	if name, ok := strings.CutPrefix(varName, "dev:"); ok {
		if string(v.contexts[name]) == value {
			return 0
		}
		v.contexts[name] = policy.SecurityContext(value)
	} else if name, ok := strings.CutPrefix(varName, "env:"); ok {
		if v.env[name] == value {
			return 0
		}
		v.env[name] = value
	} else {
		return 0
	}
	v.version++
	return v.version
}

func (v *mapView) apply(ctx context.Context, varName, value, reason string) {
	version := v.commitLocked(varName, value)
	if version == 0 {
		return
	}
	c := ViewChange{Var: varName, Value: value, Version: version, Reason: reason, TraceID: telemetry.TraceID(ctx)}
	for _, o := range v.observers {
		o(ctx, c)
	}
}

func (v *mapView) Observe(o ViewObserver) { v.observers = append(v.observers, o) }

func (v *mapView) SetDeviceContext(ctx context.Context, dev string, sc policy.SecurityContext, reason string) {
	v.apply(ctx, "dev:"+dev, string(sc), reason)
}

func (v *mapView) SetEnv(ctx context.Context, envVar, level, reason string) {
	v.apply(ctx, "env:"+envVar, level, reason)
}

func (v *mapView) DeviceContext(dev string) policy.SecurityContext {
	if c, ok := v.contexts[dev]; ok {
		return c
	}
	return policy.ContextNormal
}

func (v *mapView) Env(envVar string) string { return v.env[envVar] }

func (v *mapView) Vars() map[string]string {
	out := make(map[string]string, len(v.contexts)+len(v.env))
	for dev, sc := range v.contexts {
		out["dev:"+dev] = string(sc)
	}
	for name, val := range v.env {
		out["env:"+name] = val
	}
	return out
}

func (v *mapView) Restore(vars map[string]string) uint64 {
	for varName, value := range vars {
		v.commitLocked(varName, value)
	}
	return v.version
}

func (v *mapView) State() policy.State {
	s := policy.NewState()
	for dev, sc := range v.contexts {
		s.Contexts[dev] = sc
	}
	for k, val := range v.env {
		s.Env[k] = val
	}
	return s
}

func (v *mapView) HandleDeviceEvent(ctx context.Context, e device.Event) {
	varName, value := eventVar(e)
	reason := "device report"
	switch e.Kind {
	case device.EventBackdoorAccess:
		reason = "backdoor access: " + e.Detail
	case device.EventAuthFailure:
		v.failures[e.Device]++
		n := v.failures[e.Device]
		if n < bruteForceThreshold {
			return
		}
		reason = fmt.Sprintf("brute force: %d consecutive auth failures", n)
	case device.EventAuthSuccess:
		v.failures[e.Device] = 0
	}
	if varName != "" {
		v.apply(ctx, varName, value, reason)
	}
}

func (v *mapView) HandleAlert(ctx context.Context, dev string, a ids.Alert) {
	sc := policy.ContextSuspicious
	if a.Action == ids.ActionBlock {
		sc = policy.ContextCompromised
	}
	v.SetDeviceContext(ctx, dev, sc, fmt.Sprintf("ids sid=%d %s", a.SID, a.Msg))
}

// changeLog records a view's observer stream, without the wall-clock
// stamp.
type changeLog struct{ changes []ViewChange }

func (l *changeLog) observe(_ context.Context, c ViewChange) {
	c.When = time.Time{}
	l.changes = append(l.changes, c)
}

// viewPair drives a View and its map-backed oracle with the same
// operations and compares everything either can be asked.
type viewPair struct {
	t         *testing.T
	got       *View
	want      *mapView
	gotLog    changeLog
	wantLog   changeLog
	devs, env []string // names to read back, absent ones included
}

func newViewPair(t *testing.T, got *View, want *mapView, devs, env []string) *viewPair {
	p := &viewPair{t: t, got: got, want: want, devs: devs, env: env}
	got.Observe(p.gotLog.observe)
	want.Observe(p.wantLog.observe)
	return p
}

func (p *viewPair) check(step string) {
	p.t.Helper()
	if g, w := p.got.Vars(), p.want.Vars(); !reflect.DeepEqual(g, w) {
		p.t.Fatalf("%s: Vars\n got %v\nwant %v", step, g, w)
	}
	if g, w := p.got.State(), p.want.State(); !reflect.DeepEqual(g, w) {
		p.t.Fatalf("%s: State\n got %v\nwant %v", step, g, w)
	}
	if g, w := p.got.Version(), p.want.version; g != w {
		p.t.Fatalf("%s: Version %d, want %d", step, g, w)
	}
	for _, dev := range p.devs {
		if g, w := p.got.DeviceContext(dev), p.want.DeviceContext(dev); g != w {
			p.t.Fatalf("%s: DeviceContext(%q) = %q, want %q", step, dev, g, w)
		}
	}
	for _, name := range p.env {
		if g, w := p.got.Env(name), p.want.Env(name); g != w {
			p.t.Fatalf("%s: Env(%q) = %q, want %q", step, name, g, w)
		}
	}
	if !reflect.DeepEqual(p.gotLog.changes, p.wantLog.changes) {
		p.t.Fatalf("%s: observer streams differ\n got %v\nwant %v", step, p.gotLog.changes, p.wantLog.changes)
	}
}

// TestViewSlotsMatchMapView drives scoped and unscoped views with random
// commits over names in and out of scope — empty values, "" over a set
// value, restores, auth failures and successes, alerts — and requires
// every read and the observer stream to match the map-backed view's.
func TestViewSlotsMatchMapView(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	devValues := []string{"", "normal", "suspicious", "compromised", "odd value"}
	envValues := []string{"", "a", "b", "on", "off"}
	for trial := 0; trial < 200; trial++ {
		// Devices d00..d11 and their "_attr" variables exist; a scoped
		// view lists a random subset of each, so commits land both in
		// slots and in the map.
		var devs, envNames []string
		for i := 0; i < 12; i++ {
			devs = append(devs, fmt.Sprintf("d%02d", i))
			envNames = append(envNames, fmt.Sprintf("d%02d_attr", i))
		}
		envNames = append(envNames, "weather", "zone")
		got := NewView()
		if trial%4 != 0 {
			for _, name := range devs {
				if rng.Intn(3) > 0 {
					got.contexts.scope = append(got.contexts.scope, name)
				}
			}
			for _, name := range envNames {
				if rng.Intn(3) > 0 {
					got.env.scope = append(got.env.scope, name)
				}
			}
			slices.Sort(got.env.scope)
		}
		p := newViewPair(t, got, newMapView(), append(devs, "absent", ""), append(envNames, "absent", ""))
		ctx := context.Background()
		dev := func() string { return devs[rng.Intn(len(devs))] }
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(9); op {
			case 0:
				d, val := dev(), devValues[rng.Intn(len(devValues))]
				got.SetDeviceContext(ctx, d, policy.SecurityContext(val), "set")
				p.want.SetDeviceContext(ctx, d, policy.SecurityContext(val), "set")
			case 1:
				name, val := envNames[rng.Intn(len(envNames))], envValues[rng.Intn(len(envValues))]
				got.SetEnv(ctx, name, val, "env")
				p.want.SetEnv(ctx, name, val, "env")
			case 2:
				vars := map[string]string{}
				for i := rng.Intn(6); i > 0; i-- {
					switch rng.Intn(3) {
					case 0:
						vars["dev:"+dev()] = devValues[rng.Intn(len(devValues))]
					case 1:
						vars["env:"+envNames[rng.Intn(len(envNames))]] = envValues[rng.Intn(len(envValues))]
					default:
						vars["x:"+dev()] = "ignored" // neither namespace
					}
				}
				if g, w := got.Restore(vars), p.want.Restore(vars); g != w {
					t.Fatalf("trial %d step %d: Restore = %d, want %d", trial, step, g, w)
				}
			case 3, 4:
				e := device.Event{Device: dev(), Kind: device.EventAuthFailure}
				got.HandleDeviceEvent(ctx, e)
				p.want.HandleDeviceEvent(ctx, e)
			case 5:
				e := device.Event{Device: dev(), Kind: device.EventAuthSuccess}
				got.HandleDeviceEvent(ctx, e)
				p.want.HandleDeviceEvent(ctx, e)
			case 6:
				e := device.Event{Device: dev(), Kind: device.EventStateChange, Detail: "attr=" + envValues[rng.Intn(len(envValues))]}
				got.HandleDeviceEvent(ctx, e)
				p.want.HandleDeviceEvent(ctx, e)
			case 7:
				e := device.Event{Device: dev(), Kind: device.EventBackdoorAccess, Detail: "probe"}
				got.HandleDeviceEvent(ctx, e)
				p.want.HandleDeviceEvent(ctx, e)
			default:
				a := ids.Alert{SID: 7, Msg: "sig", Action: ids.ActionBlock}
				d := dev()
				got.HandleAlert(ctx, d, a)
				p.want.HandleAlert(ctx, d, a)
			}
			p.check(fmt.Sprintf("trial %d step %d", trial, step))
		}
	}
}

// TestRoutedViewsMatchMapViews routes random device events through a
// random hierarchy and requires each local's and the Global's view to
// match a map-backed view fed the events routed to it.
func TestRoutedViewsMatchMapViews(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 20; trial++ {
		h, devs, envVars := randomHierarchy(rng, 8+rng.Intn(24))
		reads := append(slices.Clone(devs), "absent")
		envReads := append(slices.Clone(envVars), "absent", "absent_attr")
		locals := map[int]*viewPair{}
		for g, l := range h.locals {
			locals[g] = newViewPair(t, l.View, newMapView(), reads, envReads)
		}
		global := newViewPair(t, h.Global.View, newMapView(), reads, envReads)
		kinds := []device.EventKind{device.EventStateChange, device.EventSensor, device.EventAuthFailure,
			device.EventAuthSuccess, device.EventBackdoorAccess, device.EventCommand}
		for step := 0; step < 300; step++ {
			dev := devs[rng.Intn(len(devs))]
			if rng.Intn(10) == 0 {
				dev = "absent"
			}
			e := device.Event{Device: dev, Kind: kinds[rng.Intn(len(kinds))],
				Detail: []string{"attr=a", "attr=b", "attr=", "level=hi", "noise"}[rng.Intn(5)]}
			// Each event opens a trace, so an escalated commit carries the
			// same trace ID as the oracle's.
			ctx, span := telemetry.StartSpan(context.Background(), "test.event")
			h.HandleDeviceEvent(ctx, e)
			group := h.partitioning.GroupOf(e.Device)
			if p := locals[group]; p != nil {
				p.want.HandleDeviceEvent(ctx, e)
			}
			if varName, _ := eventVar(e); h.globalVars[varName] {
				global.want.HandleDeviceEvent(ctx, e)
			}
			span.End()
		}
		for g, p := range locals {
			p.check(fmt.Sprintf("trial %d local %d", trial, g))
		}
		global.check(fmt.Sprintf("trial %d global", trial))
	}
}
