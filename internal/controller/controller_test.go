package controller

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/ids"
	"iotsec/internal/policy"
)

// observed collects a view's committed changes.
func observed(v *View) func() []ViewChange {
	var mu sync.Mutex
	var changes []ViewChange
	v.Observe(func(_ context.Context, c ViewChange) {
		mu.Lock()
		changes = append(changes, c)
		mu.Unlock()
	})
	return func() []ViewChange {
		mu.Lock()
		defer mu.Unlock()
		return append([]ViewChange(nil), changes...)
	}
}

// TestViewVersionsMonotonic: one version counter across device and env
// variables, and Version() is the last committed change's.
func TestViewVersionsMonotonic(t *testing.T) {
	v := NewView()
	changes := observed(v)
	ctx := context.Background()
	v.SetEnv(ctx, "a", "1", "")
	v.SetDeviceContext(ctx, "b", policy.ContextSuspicious, "")
	v.SetEnv(ctx, "a", "3", "")
	got := changes()
	if len(got) != 3 || !(got[0].Version < got[1].Version && got[1].Version < got[2].Version) {
		t.Fatalf("changes = %+v", got)
	}
	if v.Env("a") != "3" || v.DeviceContext("b") != policy.ContextSuspicious {
		t.Errorf("a = %q, b = %q", v.Env("a"), v.DeviceContext("b"))
	}
	if v.Version() != got[2].Version {
		t.Errorf("Version() = %d, last change v%d", v.Version(), got[2].Version)
	}
}

// TestViewSetGetProperty: a write reads back, takes the next version
// exactly when it changed the value, and an unchanged value commits
// nothing and notifies nobody.
func TestViewSetGetProperty(t *testing.T) {
	v := NewView()
	changes := observed(v)
	f := func(name, value string) bool {
		before, seen, old := v.Version(), len(changes()), v.Env(name)
		v.SetEnv(context.Background(), name, value, "")
		got := changes()
		if v.Env(name) != value {
			return false
		}
		if value == old {
			return v.Version() == before && len(got) == seen
		}
		return v.Version() == before+1 && len(got) == seen+1 && got[seen].Version == before+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if !f("k", "same") || !f("k", "same") {
		t.Error("repeated write broke the property")
	}
}

// TestViewConcurrentCommitters: N concurrent commits take versions
// 1..N, no gap, no duplicate.
func TestViewConcurrentCommitters(t *testing.T) {
	const n = 64
	v := NewView()
	changes := observed(v)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				v.SetEnv(context.Background(), fmt.Sprint("k", i), "x", "")
			} else {
				v.SetDeviceContext(context.Background(), fmt.Sprint("d", i), policy.ContextSuspicious, "")
			}
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]bool, n)
	for _, c := range changes() {
		if c.Version < 1 || c.Version > n || seen[c.Version] {
			t.Fatalf("version %d out of range or duplicated", c.Version)
		}
		seen[c.Version] = true
	}
	if len(seen) != n || v.Version() != n {
		t.Fatalf("%d distinct versions, Version() = %d, want %d", len(seen), v.Version(), n)
	}
}

// TestViewRestoreVersions: Restore takes one version per variable it
// changed, whatever order the map yields them in, notifies nobody, and
// the next commit continues from there.
func TestViewRestoreVersions(t *testing.T) {
	vars := map[string]string{"junk": "ignored"}
	for i := 0; i < 20; i++ {
		vars[fmt.Sprint("env:k", i)] = "x"
		vars[fmt.Sprint("dev:d", i)] = string(policy.ContextSuspicious)
	}
	for run := 0; run < 5; run++ {
		v := NewView()
		changes := observed(v)
		v.SetEnv(context.Background(), "k0", "x", "") // v1; Restore skips it as unchanged
		if got := v.Restore(vars); got != 40 || v.Version() != 40 {
			t.Fatalf("run %d: Restore = %d, Version() = %d, want 40", run, got, v.Version())
		}
		if got := v.Restore(vars); got != 40 {
			t.Fatalf("run %d: second Restore = %d, want 40 (idempotent)", run, got)
		}
		if len(changes()) != 1 {
			t.Fatalf("run %d: Restore notified observers: %+v", run, changes())
		}
		v.SetEnv(context.Background(), "k0", "y", "")
		if got := changes(); got[1].Version != 41 {
			t.Fatalf("run %d: commit after Restore took v%d, want 41", run, got[1].Version)
		}
		if got := v.Vars(); len(got) != 40 || got["dev:d7"] != string(policy.ContextSuspicious) {
			t.Fatalf("run %d: Vars = %v", run, got)
		}
	}
}

// TestViewChangeFormatRoundTrip: parse∘format is the identity for
// every (var, value, reason), including text that contains the
// format's own separators; ordinary values keep today's plain line.
func TestViewChangeFormatRoundTrip(t *testing.T) {
	check := func(c ViewChange) {
		t.Helper()
		line := formatViewChange(c)
		got, ok := parseViewChange(line)
		if !ok || got != c {
			t.Fatalf("%q parsed as %+v ok=%v, want %+v", line, got, ok, c)
		}
	}
	for _, c := range []ViewChange{
		{Version: 7, Var: "dev:cam", Value: "suspicious", Reason: "ids sid=9 cam backdoor (CVE-2014-1234)"},
		{Version: 8, Var: "dev:cam", Value: "suspicious", Reason: "backdoor access: x = y (z) ("},
		{Version: 9, Var: "env:cam_mode", Value: "a (b", Reason: "device report"},
		{Version: 10, Var: "env:cam_a = b", Value: `"quoted"`, Reason: ""},
		{Version: 11, Var: "", Value: "", Reason: ")"},
	} {
		check(c)
	}
	plain := ViewChange{Version: 3, Var: "env:fva0_attr", Value: "q", Reason: "device report"}
	if got := formatViewChange(plain); got != "v3 env:fva0_attr = q (device report)" {
		t.Errorf("ordinary change rendered as %q", got)
	}

	const alphabet = ` =()"\av:_`
	rng := rand.New(rand.NewSource(1))
	field := func() string {
		b := make([]byte, rng.Intn(8))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		check(ViewChange{Version: rng.Uint64(), Var: field(), Value: field(), Reason: field()})
	}
	for _, bad := range []string{"", "v", "v7", "vx a = b (c)", "v7 a = b", "v7 a = b (c", `v7 "a = b (c)`} {
		if c, ok := parseViewChange(bad); ok {
			t.Errorf("%q parsed as %+v", bad, c)
		}
	}
}

// TestEventVarMatchesCommit: for every event kind, the event→variable
// rule names exactly the variable and value HandleDeviceEvent commits
// (auth failures once the brute-force threshold is reached).
func TestEventVarMatchesCommit(t *testing.T) {
	for _, e := range []device.Event{
		{Device: "cam", Kind: device.EventAuthFailure},
		{Device: "cam", Kind: device.EventAuthSuccess},
		{Device: "cam", Kind: device.EventBackdoorAccess, Detail: "TEST"},
		{Device: "cam", Kind: device.EventCommand, Detail: "mode=on"},
		{Device: "cam", Kind: device.EventStateChange, Detail: "mode=on"},
		{Device: "cam", Kind: device.EventStateChange, Detail: "no-assignment"},
		{Device: "cam", Kind: device.EventSensor, Detail: "presence=yes"},
		{Device: "cam", Kind: device.EventSensor, Detail: "test-alarm"},
	} {
		v := NewView()
		changes := observed(v)
		for i := 0; i < bruteForceThreshold; i++ {
			v.HandleDeviceEvent(context.Background(), e)
		}
		got := changes()
		varName, value := eventVar(e)
		ok := varName != ""
		switch {
		case !ok && len(got) != 0:
			t.Errorf("%s %q: rule says no variable, committed %+v", e.Kind, e.Detail, got)
		case ok && (len(got) != 1 || got[0].Var != varName || got[0].Value != value):
			t.Errorf("%s %q: rule says %s = %s, committed %+v", e.Kind, e.Detail, varName, value, got)
		}
	}
	// The naming convention and its inverse agree.
	name, _ := strings.CutPrefix(deviceEnvVar("smart_plug", "power"), "env:")
	if dev, ok := envVarReporter(name); !ok || dev != "smart_plug" {
		t.Errorf("envVarReporter(%q) = %q %v", name, dev, ok)
	}
}

func TestViewEscalationRules(t *testing.T) {
	v := NewView()
	var changes []ViewChange
	var mu sync.Mutex
	v.Observe(func(_ context.Context, c ViewChange) {
		mu.Lock()
		changes = append(changes, c)
		mu.Unlock()
	})

	// Backdoor access flips to suspicious immediately.
	v.HandleDeviceEvent(context.Background(), device.Event{Device: "alarm", Kind: device.EventBackdoorAccess, Detail: "TEST"})
	if v.DeviceContext("alarm") != policy.ContextSuspicious {
		t.Error("backdoor did not escalate")
	}

	// Brute force needs the threshold.
	for i := 0; i < 4; i++ {
		v.HandleDeviceEvent(context.Background(), device.Event{Device: "window", Kind: device.EventAuthFailure})
	}
	if v.DeviceContext("window") != policy.ContextNormal {
		t.Error("escalated below threshold")
	}
	v.HandleDeviceEvent(context.Background(), device.Event{Device: "window", Kind: device.EventAuthFailure})
	if v.DeviceContext("window") != policy.ContextSuspicious {
		t.Error("brute force did not escalate at threshold")
	}

	// Success resets the counter.
	v2 := NewView()
	for i := 0; i < 4; i++ {
		v2.HandleDeviceEvent(context.Background(), device.Event{Device: "d", Kind: device.EventAuthFailure})
	}
	v2.HandleDeviceEvent(context.Background(), device.Event{Device: "d", Kind: device.EventAuthSuccess})
	for i := 0; i < 4; i++ {
		v2.HandleDeviceEvent(context.Background(), device.Event{Device: "d", Kind: device.EventAuthFailure})
	}
	if v2.DeviceContext("d") != policy.ContextNormal {
		t.Error("auth success did not reset the failure counter")
	}

	// State changes surface as env vars.
	v.HandleDeviceEvent(context.Background(), device.Event{Device: "cam", Kind: device.EventStateChange, Detail: "person=yes"})
	if v.Env("cam_person") != "yes" {
		t.Errorf("cam_person = %q", v.Env("cam_person"))
	}

	// Idempotent writes do not notify.
	mu.Lock()
	n := len(changes)
	mu.Unlock()
	v.HandleDeviceEvent(context.Background(), device.Event{Device: "cam", Kind: device.EventStateChange, Detail: "person=yes"})
	mu.Lock()
	if len(changes) != n {
		t.Error("idempotent write notified observers")
	}
	mu.Unlock()
}

func TestViewAlertsAndAnomalies(t *testing.T) {
	v := NewView()
	v.HandleAlert(context.Background(), "cam", ids.Alert{SID: 7, Action: ids.ActionAlert, Msg: "probe"})
	if v.DeviceContext("cam") != policy.ContextSuspicious {
		t.Error("alert did not mark suspicious")
	}
	v.HandleAlert(context.Background(), "cam", ids.Alert{SID: 8, Action: ids.ActionBlock, Msg: "exploit"})
	if v.DeviceContext("cam") != policy.ContextCompromised {
		t.Error("block alert did not mark compromised")
	}
	v.HandleAnomaly(context.Background(), ids.Anomaly{Device: "plug", Kind: ids.AnomalyRate, Detail: "burst"})
	if v.DeviceContext("plug") != policy.ContextSuspicious {
		t.Error("anomaly did not mark suspicious")
	}
}

func TestPartitioning(t *testing.T) {
	devices := []string{"a", "b", "c", "d", "e", "f"}
	edges := []InteractionEdge{
		{A: "a", B: "b", Weight: 100},
		{A: "b", B: "c", Weight: 90},
		{A: "d", B: "e", Weight: 80},
		{A: "c", B: "d", Weight: 1}, // light cross edge
	}
	p := Partition(devices, edges, 3)
	if !p.SameGroup("a", "b") || !p.SameGroup("b", "c") {
		t.Errorf("heavy triangle split: %v", p.Groups)
	}
	if !p.SameGroup("d", "e") {
		t.Errorf("d,e split: %v", p.Groups)
	}
	if p.SameGroup("c", "d") {
		t.Errorf("size cap violated: %v", p.Groups)
	}
	if p.GroupOf("ghost") != -1 {
		t.Error("unknown device got a group")
	}
	if r := p.LocalityRatio(); r < 0.98 {
		t.Errorf("locality = %.3f, want ~0.996", r)
	}
}

func TestGlobalControllerPostureDeltas(t *testing.T) {
	d := policy.NewDomain()
	d.AddDevice("window", policy.ContextNormal, policy.ContextSuspicious)
	d.AddDevice("alarm", policy.ContextNormal, policy.ContextSuspicious)
	f := policy.NewFSM(d)
	f.AddRule(policy.Rule{
		Name:       "fig3",
		Conditions: []policy.Condition{policy.DeviceIs("alarm", policy.ContextSuspicious)},
		Device:     "window",
		Posture:    policy.Posture{BlockCommands: []string{"OPEN"}},
		Priority:   10,
	})

	type change struct {
		dev string
		p   policy.Posture
	}
	var mu sync.Mutex
	var changes []change
	g := NewGlobal(f, func(_ context.Context, dev string, p policy.Posture, _ uint64) {
		mu.Lock()
		changes = append(changes, change{dev, p})
		mu.Unlock()
	})

	g.View.HandleDeviceEvent(context.Background(), device.Event{Device: "alarm", Kind: device.EventBackdoorAccess})
	mu.Lock()
	defer mu.Unlock()
	var winChanged bool
	for _, c := range changes {
		if c.dev == "window" && len(c.p.BlockCommands) == 1 {
			winChanged = true
		}
	}
	if !winChanged {
		t.Errorf("posture deltas = %+v", changes)
	}
}

func TestHierarchyLocalVsGlobalRouting(t *testing.T) {
	// Two partitions: {cam, plug} and {alarm, window}. One local rule
	// per partition plus one global (cross-partition) rule.
	d := policy.NewDomain()
	for _, dev := range []string{"cam", "plug", "alarm", "window"} {
		d.AddDevice(dev, policy.ContextNormal, policy.ContextSuspicious)
	}
	d.AddEnvVar("cam_person", "yes", "no")
	f := policy.NewFSM(d)
	// Local to group 0: cam person drives plug gating.
	f.AddRule(policy.Rule{
		Name:       "local-g0",
		Conditions: []policy.Condition{policy.EnvIs("cam_person", "no")},
		Device:     "plug",
		Posture:    policy.Posture{BlockCommands: []string{"ON"}},
		Priority:   5,
	})
	// Global: alarm context drives window, but ALSO references plug
	// (cross-partition).
	f.AddRule(policy.Rule{
		Name: "global-cross",
		Conditions: []policy.Condition{
			policy.DeviceIs("alarm", policy.ContextSuspicious),
			policy.DeviceIs("plug", policy.ContextSuspicious),
		},
		Device:   "window",
		Posture:  policy.Posture{Isolate: true},
		Priority: 9,
	})

	part := Partition(
		[]string{"cam", "plug", "alarm", "window"},
		[]InteractionEdge{{A: "cam", B: "plug", Weight: 10}, {A: "alarm", B: "window", Weight: 10}},
		2,
	)
	envLocality := map[string]int{"cam_person": part.GroupOf("cam")}

	var mu sync.Mutex
	postures := map[string]policy.Posture{}
	h := NewHierarchy(f, part, envLocality, func(_ context.Context, dev string, p policy.Posture, _ uint64) {
		mu.Lock()
		postures[dev] = p
		mu.Unlock()
	})
	if h.Locals() != 1 {
		t.Errorf("local controllers = %d, want 1 (only group 0 has a fully local rule)", h.Locals())
	}

	// A cam state change is local: handled without escalation.
	h.HandleDeviceEvent(context.Background(), device.Event{Device: "cam", Kind: device.EventStateChange, Detail: "person=no"})
	local, escalated := h.Metrics()
	if local != 1 || escalated != 0 {
		t.Errorf("after local event: local=%d escalated=%d", local, escalated)
	}
	mu.Lock()
	if p, ok := postures["plug"]; !ok || len(p.BlockCommands) != 1 {
		t.Errorf("local rule did not fire: %+v", postures)
	}
	mu.Unlock()

	// Alarm backdoor is globally relevant (global rule references
	// dev:alarm): escalates.
	h.HandleDeviceEvent(context.Background(), device.Event{Device: "alarm", Kind: device.EventBackdoorAccess})
	_, escalated = h.Metrics()
	if escalated != 1 {
		t.Errorf("escalated = %d, want 1", escalated)
	}
	// Plug backdoor also escalates and completes the global rule.
	h.HandleDeviceEvent(context.Background(), device.Event{Device: "plug", Kind: device.EventBackdoorAccess})
	mu.Lock()
	if p, ok := postures["window"]; !ok || !p.Isolate {
		t.Errorf("global rule did not fire: %+v", postures)
	}
	mu.Unlock()
}

func TestHierarchyGlobalDelayAccounting(t *testing.T) {
	d := policy.NewDomain()
	d.AddDevice("a", policy.ContextNormal, policy.ContextSuspicious)
	d.AddDevice("b", policy.ContextNormal, policy.ContextSuspicious)
	f := policy.NewFSM(d)
	// Cross rule: references both devices → global.
	f.AddRule(policy.Rule{
		Name: "cross",
		Conditions: []policy.Condition{
			policy.DeviceIs("a", policy.ContextSuspicious),
			policy.DeviceIs("b", policy.ContextSuspicious),
		},
		Device:   "a",
		Posture:  policy.Posture{Isolate: true},
		Priority: 1,
	})
	part := Partition([]string{"a", "b"}, nil, 1)
	h := NewHierarchy(f, part, nil, nil)
	h.GlobalDelay = 20 * time.Millisecond

	start := time.Now()
	h.HandleDeviceEvent(context.Background(), device.Event{Device: "a", Kind: device.EventBackdoorAccess})
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("escalation did not pay the global delay: %v", elapsed)
	}
}
