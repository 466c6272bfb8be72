package learn

import (
	"testing"
)

// smartHomeWorld builds the canonical test deployment: plug-powered
// heater, A/C, IFTTT window, bulb, light sensor, fire alarm, oven,
// lock.
func smartHomeWorld() *World {
	lib := StandardLibrary()
	w := NewWorld(map[string]string{
		"temperature":    "normal",
		"light":          "dark",
		"smoke":          "no",
		"window":         "closed",
		"door":           "locked",
		"alarm_sounding": "no",
	})
	get := func(c string) *Model {
		m, ok := lib.Get(c)
		if !ok {
			panic("missing model " + c)
		}
		return m
	}
	w.AddInstance("plug", get("plug"))
	w.AddInstance("window", get("window"))
	w.AddInstance("bulb", get("bulb"))
	w.AddInstance("lightsensor", get("light-sensor"))
	w.AddInstance("firealarm", get("fire-alarm"))
	w.AddInstance("oven", get("oven"))
	w.AddInstance("lock", get("lock"))
	return w
}

func TestLibraryValidation(t *testing.T) {
	lib := StandardLibrary()
	if len(lib.models) < 7 {
		t.Errorf("library holds %d classes, want >= 7", len(lib.models))
	}
	bad := &Model{Class: "bad", States: []string{"a"}, Initial: "zzz"}
	if err := NewLibrary().Add(bad); err == nil {
		t.Error("invalid model accepted")
	}
	bad2 := &Model{
		Class: "bad2", States: []string{"a"}, Initial: "a",
		Transitions: map[string]map[string]string{"GO": {"a": "ghost"}},
	}
	if err := NewLibrary().Add(bad2); err == nil {
		t.Error("ghost transition accepted")
	}
}

func TestWorldImplicitCoupling(t *testing.T) {
	// The paper's flagship implicit dependency: bulb ON → light=lit →
	// light sensor transitions, with no network path between them.
	w := smartHomeWorld()
	w.Step()
	ls, _ := w.Instance("lightsensor")
	if ls.State != "dark" {
		t.Fatalf("sensor initial = %q", ls.State)
	}
	if !w.Command("bulb", "ON") {
		t.Fatal("bulb ON rejected")
	}
	w.Step()
	if ls.State != "lit" {
		t.Errorf("sensor = %q after bulb on", ls.State)
	}
	w.Command("bulb", "OFF")
	w.Step()
	w.Step()
	if ls.State != "dark" {
		t.Errorf("sensor = %q after bulb off (default restore broken)", ls.State)
	}
}

func TestWorldAttackChainPhysics(t *testing.T) {
	// §2.1 chain: plug ON → heat → temperature high → IFTTT window
	// opens.
	w := smartHomeWorld()
	w.Step()
	win, _ := w.Instance("window")
	if win.State != "closed" {
		t.Fatal("window should start closed")
	}
	w.Command("plug", "ON")
	w.Step()
	w.Step()
	if win.State != "open" {
		t.Errorf("window = %q; heat-driven open failed (temp=%s)", win.State, w.Env("temperature"))
	}
}

func TestWorldResetAndKey(t *testing.T) {
	w := smartHomeWorld()
	k1 := w.Key()
	w.Command("plug", "ON")
	w.Step()
	if w.Key() == k1 {
		t.Error("key did not change with state")
	}
	w.Reset()
	if w.Key() != k1 {
		t.Error("reset did not restore initial key")
	}
}

func TestFuzzerDiscoversImplicitInteractions(t *testing.T) {
	f := NewFuzzer(smartHomeWorld, 7)
	result := f.Run(300)
	keys := map[string]bool{}
	for k := range result.Discovered {
		keys[k] = true
	}
	// Must find: bulb→lightsensor, plug→window (through heat),
	// oven→window and oven→firealarm (smoke).
	for _, want := range []string{
		"bulb.ON->lightsensor=lit",
		"plug.ON->window=open",
		"oven.ON->window=open",
		"oven.ON->firealarm=alarm",
	} {
		if !keys[want] {
			t.Errorf("fuzzer missed %s (found %v)", want, result.Interactions())
		}
	}
	// Coverage curve is monotone.
	prev := 0
	for _, c := range result.CoverageCurve {
		if c < prev {
			t.Fatal("coverage curve decreased")
		}
		prev = c
	}
}

func TestFuzzingBeatsPassiveObservation(t *testing.T) {
	truth := ExhaustiveInteractions(smartHomeWorld, 1, 3)
	if len(truth) == 0 {
		t.Fatal("no ground-truth interactions")
	}
	fuzz := NewFuzzer(smartHomeWorld, 3).Run(400)
	passive := PassiveObserve(smartHomeWorld, 400)
	fc, pc := Coverage(fuzz, truth), Coverage(passive, truth)
	if fc < 0.8 {
		t.Errorf("fuzz coverage = %.2f, want >= 0.8", fc)
	}
	if pc >= fc {
		t.Errorf("passive coverage %.2f should trail fuzzing %.2f", pc, fc)
	}
}

func TestAttackSearchFindsMultiStagePath(t *testing.T) {
	// Goal: get the window open (physical break-in) with only the
	// plug exploitable. The only route is the implicit one: exploit
	// plug, turn it on, wait for heat, window opens itself.
	search := &AttackSearch{
		Build:      smartHomeWorld,
		Vulnerable: map[string]bool{"plug": true},
		Open:       map[string]bool{},
		MaxDepth:   8,
	}
	path, exhausted := search.FindAttack(GoalEnv("window", "open"))
	if exhausted || path == nil {
		t.Fatal("no attack found")
	}
	var sawExploit, sawOn, sawWait bool
	for _, s := range path {
		if s.Kind == StepExploit && s.Device == "plug" {
			sawExploit = true
		}
		if s.Kind == StepCommand && s.Device == "plug" && s.Cmd == "ON" {
			sawOn = true
		}
		if s.Kind == StepWait {
			sawWait = true
		}
	}
	if !sawExploit || !sawOn || !sawWait {
		t.Errorf("path = %s", PathString(path))
	}
}

func TestAttackSearchRespectsGoalAlreadyMet(t *testing.T) {
	search := &AttackSearch{Build: smartHomeWorld, MaxDepth: 3}
	path, exhausted := search.FindAttack(GoalEnv("door", "locked"))
	if exhausted || path == nil || len(path) != 0 {
		t.Errorf("path = %v exhausted = %v", path, exhausted)
	}
}

func TestAttackSearchExhaustsWhenNoRoute(t *testing.T) {
	// Nothing vulnerable, nothing open: the attacker can only wait.
	search := &AttackSearch{Build: smartHomeWorld, MaxDepth: 5}
	path, exhausted := search.FindAttack(GoalEnv("window", "open"))
	if path != nil || !exhausted {
		t.Errorf("found %v in a fully locked deployment", path)
	}
}

func TestMitigationCutsAttackGraph(t *testing.T) {
	search := &AttackSearch{
		Build:      smartHomeWorld,
		Vulnerable: map[string]bool{"plug": true},
		MaxDepth:   8,
	}
	// Unmitigated: attack exists.
	if path, _ := search.FindAttack(GoalEnv("window", "open")); path == nil {
		t.Fatal("baseline attack missing")
	}
	// Blocking plug.ON (the Figure 5 posture) severs the route.
	path, exhausted := search.FindAttackWithMitigations(
		GoalEnv("window", "open"),
		[]Mitigation{{Device: "plug", Cmd: "ON"}},
	)
	if path != nil || !exhausted {
		t.Errorf("mitigated attack still found: %s", PathString(path))
	}
}

func TestAttackSearchUnlockViaOvenSmoke(t *testing.T) {
	// A deeper chain: with only the oven open (say a smart-hub bug),
	// reach door unlocked? There is no rule unlocking the door from
	// smoke in these models — the search must say so rather than
	// hallucinate.
	search := &AttackSearch{
		Build:    smartHomeWorld,
		Open:     map[string]bool{"oven": true},
		MaxDepth: 8,
	}
	path, exhausted := search.FindAttack(GoalEnv("door", "unlocked"))
	if path != nil || !exhausted {
		t.Errorf("impossible goal reached: %s", PathString(path))
	}
	// But with the lock also vulnerable, the direct path exists and
	// is short.
	search.Vulnerable = map[string]bool{"lock": true}
	path, _ = search.FindAttack(GoalEnv("door", "unlocked"))
	if path == nil || len(path) > 4 {
		t.Errorf("direct unlock path = %s", PathString(path))
	}
}

func TestDescribeAttack(t *testing.T) {
	if DescribeAttack(nil) != "no attack found" {
		t.Error("nil path description")
	}
	if DescribeAttack([]AttackStep{}) != "goal already satisfied" {
		t.Error("empty path description")
	}
	got := DescribeAttack([]AttackStep{
		{Kind: StepExploit, Device: "plug"},
		{Kind: StepCommand, Device: "plug", Cmd: "ON"},
		{Kind: StepWait},
	})
	for _, want := range []string{"exploit(plug)", "plug.ON", "wait"} {
		if !contains(got, want) {
			t.Errorf("description %q missing %q", got, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
