package policy

import (
	"math/rand"
	"strings"
	"testing"
)

// figure3FSM builds the paper's Figure 3 policy: a fire alarm and a
// window actuator.
//
//   - FireAlarm backdoor accessed → FireAlarm suspicious → block
//     "open" to the window (stop the break-in).
//   - Window password brute-forced → Window suspicious → robot-check
//     (captcha-like challenge module) in front of the window.
func figure3FSM() *FSM {
	d := NewDomain()
	d.AddDevice("firealarm", ContextNormal, ContextSuspicious)
	d.AddDevice("window", ContextNormal, ContextSuspicious)
	d.AddEnvVar("alarm", "ok", "alarm")
	d.AddEnvVar("window_pos", "closed", "open")

	f := NewFSM(d)
	f.AddRule(Rule{
		Name:     "baseline-window",
		Device:   "window",
		Posture:  Posture{Modules: []ModuleSpec{{Kind: "stateful-fw"}}},
		Priority: 0,
	})
	f.AddRule(Rule{
		Name:     "baseline-firealarm",
		Device:   "firealarm",
		Posture:  Posture{Modules: []ModuleSpec{{Kind: "stateful-fw"}}},
		Priority: 0,
	})
	f.AddRule(Rule{
		Name:       "alarm-suspicious-blocks-window-open",
		Conditions: []Condition{DeviceIs("firealarm", ContextSuspicious)},
		Device:     "window",
		Posture:    Posture{BlockCommands: []string{"OPEN"}, Modules: []ModuleSpec{{Kind: "stateful-fw"}}},
		Priority:   10,
	})
	f.AddRule(Rule{
		Name:       "window-suspicious-robot-check",
		Conditions: []Condition{DeviceIs("window", ContextSuspicious)},
		Device:     "window",
		Posture:    Posture{Modules: []ModuleSpec{{Kind: "robot-check"}, {Kind: "stateful-fw"}}},
		Priority:   10,
	})
	return f
}

func TestFigure3Transitions(t *testing.T) {
	f := figure3FSM()

	// All normal: window gets the baseline posture.
	s := f.Domain.defaultState()
	postures := f.Lookup(s)
	if got := postures["window"].String(); got != "stateful-fw" {
		t.Errorf("normal posture = %q", got)
	}

	// FireAlarm backdoor accessed: its context flips to suspicious —
	// the window must now block OPEN.
	s2 := s.Clone()
	s2.Contexts["firealarm"] = ContextSuspicious
	postures = f.Lookup(s2)
	win := postures["window"]
	if len(win.BlockCommands) != 1 || win.BlockCommands[0] != "OPEN" {
		t.Errorf("suspicious-alarm posture = %+v", win)
	}

	// Window brute-forced: robot check interposed.
	s3 := s.Clone()
	s3.Contexts["window"] = ContextSuspicious
	postures = f.Lookup(s3)
	found := false
	for _, m := range postures["window"].Modules {
		if m.Kind == "robot-check" {
			found = true
		}
	}
	if !found {
		t.Errorf("brute-force posture lacks robot-check: %+v", postures["window"])
	}

	// Both suspicious at once: same-priority postures merge (block
	// OPEN and robot check).
	s4 := s2.Clone()
	s4.Contexts["window"] = ContextSuspicious
	win = f.Lookup(s4)["window"]
	hasRobot := false
	for _, m := range win.Modules {
		if m.Kind == "robot-check" {
			hasRobot = true
		}
	}
	if !hasRobot || len(win.BlockCommands) != 1 {
		t.Errorf("merged posture = %+v", win)
	}
}

func TestStateCountExplosion(t *testing.T) {
	d := NewDomain()
	for i := 0; i < 20; i++ {
		d.AddDevice(string(rune('a'+i)), ContextNormal, ContextSuspicious, ContextCompromised)
	}
	for i := 0; i < 5; i++ {
		d.AddEnvVar("v"+string(rune('0'+i)), "lo", "hi")
	}
	// 3^20 × 2^5 ≈ 1.1e11.
	if c := d.StateCount(); c < 1e11 || c > 1.2e11 {
		t.Errorf("state count = %v", c)
	}
	if s := FormatCount(d.StateCount()); !strings.Contains(s, "G") && !strings.Contains(s, "e+") {
		t.Errorf("formatted = %q", s)
	}
}

func TestEnumerateStatesCompleteAndLimited(t *testing.T) {
	d := NewDomain()
	d.AddDevice("a", ContextNormal, ContextSuspicious)
	d.AddEnvVar("x", "1", "2", "3")
	seen := map[string]bool{}
	n, complete := d.EnumerateStates(0, func(s State) bool {
		seen[s.Key()] = true
		return true
	})
	if n != 6 || !complete {
		t.Errorf("enumerated %d complete=%v", n, complete)
	}
	if len(seen) != 6 {
		t.Errorf("distinct states = %d (duplicates?)", len(seen))
	}
	n, complete = d.EnumerateStates(3, func(State) bool { return true })
	if n != 3 || complete {
		t.Errorf("limited enumeration = %d complete=%v", n, complete)
	}
}

func TestPruningIndependenceAndEquivalence(t *testing.T) {
	// 10 devices, but the policy only references 2 of them.
	d := NewDomain()
	for i := 0; i < 10; i++ {
		d.AddDevice(deviceName(i), ContextNormal, ContextSuspicious)
	}
	d.AddEnvVar("occupancy", "away", "home")
	d.AddEnvVar("weather", "sun", "rain") // never referenced

	f := NewFSM(d)
	f.AddRule(Rule{
		Name:       "guard-d0",
		Conditions: []Condition{DeviceIs(deviceName(1), ContextSuspicious), EnvIs("occupancy", "away")},
		Device:     deviceName(0),
		Posture:    Posture{Isolate: true},
		Priority:   5,
	})

	report := f.Prune(0)
	if report.FullStates != 4096 { // 2^10 × 2 × 2
		t.Errorf("full states = %v", report.FullStates)
	}
	// Referenced: dev:device1, env:occupancy → 2×2 = 4.
	if report.IndependentStates != 4 {
		t.Errorf("independent states = %v (vars %v)", report.IndependentStates, report.ReferencedVars)
	}
	// Posture equivalence: only two behaviors (isolate or not).
	if report.EquivalenceClasses != 2 {
		t.Errorf("equivalence classes = %d", report.EquivalenceClasses)
	}
	if !report.Complete {
		t.Error("projected enumeration incomplete")
	}

	// Independence: across the FULL space, resetting the variables the
	// policy never references changes no posture, so the 4 projected
	// states stand for all 4096.
	count := 0
	d.EnumerateStates(0, func(s State) bool {
		if dev, ok := lookupIgnoresUnreferenced(f, s); !ok {
			t.Fatalf("posture of %s at %s depends on an unreferenced variable", dev, s)
		}
		count++
		return true
	})
	if count != 4096 {
		t.Fatalf("walked %d states, want 4096", count)
	}
}

// lookupIgnoresUnreferenced reports whether Lookup(s) equals Lookup of
// s with every variable the policy does not reference reset to its
// default — the claim behind the "Independent states" column of A1.
// On a mismatch it names the first device whose posture differs.
func lookupIgnoresUnreferenced(f *FSM, s State) (string, bool) {
	ref := map[string]bool{}
	for _, v := range f.ReferencedVars() {
		ref[v] = true
	}
	def := f.Domain.DefaultState()
	reset := s.Clone()
	for dev := range reset.Contexts {
		if !ref["dev:"+dev] {
			reset.Contexts[dev] = def.Contexts[dev]
		}
	}
	for v := range reset.Env {
		if !ref["env:"+v] {
			reset.Env[v] = def.Env[v]
		}
	}
	got, want := f.Lookup(s), f.Lookup(reset)
	for _, dev := range f.Domain.Devices() {
		if !got[dev].Equal(want[dev]) {
			return dev, false
		}
	}
	return "", true
}

func deviceName(i int) string { return "device" + string(rune('0'+i)) }

func TestPruningSoundnessProperty(t *testing.T) {
	// Random small policies: on every state, no posture depends on a
	// variable the policy does not reference.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		d := NewDomain()
		nDev := 2 + rng.Intn(3)
		for i := 0; i < nDev; i++ {
			d.AddDevice(deviceName(i), ContextNormal, ContextSuspicious)
		}
		d.AddEnvVar("e0", "a", "b")
		d.AddEnvVar("e1", "x", "y", "z")

		f := NewFSM(d)
		nRules := 1 + rng.Intn(4)
		for r := 0; r < nRules; r++ {
			var conds []Condition
			if rng.Float64() < 0.7 {
				conds = append(conds, DeviceIs(deviceName(rng.Intn(nDev)), ContextSuspicious))
			}
			if rng.Float64() < 0.5 {
				conds = append(conds, EnvIs("e0", []string{"a", "b"}[rng.Intn(2)]))
			}
			f.AddRule(Rule{
				Name:       "r" + string(rune('0'+r)),
				Conditions: conds,
				Device:     deviceName(rng.Intn(nDev)),
				Posture:    Posture{RateLimit: float64(1 + rng.Intn(3))},
				Priority:   rng.Intn(3),
			})
		}
		d.EnumerateStates(0, func(s State) bool {
			if dev, ok := lookupIgnoresUnreferenced(f, s); !ok {
				t.Fatalf("trial %d: diverged at %s/%s", trial, s, dev)
			}
			return true
		})
	}
}

func TestPostureMerge(t *testing.T) {
	a := Posture{Modules: []ModuleSpec{{Kind: "ids"}}, BlockCommands: []string{"ON"}, RateLimit: 10}
	b := Posture{Modules: []ModuleSpec{{Kind: "ids"}, {Kind: "logger"}}, BlockCommands: []string{"ON", "OFF"}, RateLimit: 5}
	m := a.Merge(b)
	if len(m.Modules) != 2 {
		t.Errorf("modules = %v (dedup failed)", m.Modules)
	}
	if len(m.BlockCommands) != 2 {
		t.Errorf("commands = %v", m.BlockCommands)
	}
	if m.RateLimit != 5 {
		t.Errorf("rate = %v, want stricter 5", m.RateLimit)
	}
	if !a.Merge(Posture{Isolate: true}).Isolate {
		t.Error("isolate must dominate")
	}
	// Merge with zero posture is identity (canonically).
	if !a.Merge(Posture{}).Equal(a) {
		t.Error("merge with zero changed posture")
	}
}

func TestConflictDetection(t *testing.T) {
	d := NewDomain()
	d.AddDevice("oven", ContextNormal, ContextSuspicious)
	d.AddEnvVar("occupancy", "away", "home")
	d.AddEnvVar("smoke", "no", "yes")

	found := conflicts(d, Rule{
		Name:       "block-on-away",
		Conditions: []Condition{EnvIs("occupancy", "away")},
		Device:     "oven",
		Posture:    Posture{BlockCommands: []string{"ON"}},
		Priority:   5,
	}, Rule{
		Name:       "allow-on-smoke-test",
		Conditions: []Condition{EnvIs("smoke", "yes")},
		Device:     "oven",
		Posture:    Posture{Modules: []ModuleSpec{{Kind: "context-gate", Config: map[string]string{"allow": "ON"}}}},
		Priority:   5,
	})
	if len(found) != 1 {
		t.Fatalf("conflicts = %v", found)
	}
	c := found[0]
	if c.Device != "oven" || !strings.Contains(c.Reason, "ON") {
		t.Errorf("conflict = %+v", c)
	}
	// The example state satisfies both rules.
	if c.Example.Env["occupancy"] != "away" || c.Example.Env["smoke"] != "yes" {
		t.Errorf("example = %v", c.Example)
	}

	// Mutually exclusive conditions cannot conflict.
	exclusive := conflicts(d, Rule{
		Name:       "a",
		Conditions: []Condition{EnvIs("occupancy", "away")},
		Device:     "oven", Posture: Posture{BlockCommands: []string{"ON"}}, Priority: 5,
	}, Rule{
		Name:       "b",
		Conditions: []Condition{EnvIs("occupancy", "home")},
		Device:     "oven",
		Posture:    Posture{Modules: []ModuleSpec{{Kind: "context-gate", Config: map[string]string{"allow": "ON"}}}},
		Priority:   5,
	})
	if got := exclusive; len(got) != 0 {
		t.Errorf("exclusive rules flagged: %v", got)
	}

	// Different priorities resolve, no conflict.
	if got := conflicts(d,
		Rule{Name: "lo", Device: "oven", Posture: Posture{Isolate: true}, Priority: 1},
		Rule{Name: "hi", Device: "oven", Posture: Posture{}, Priority: 2},
	); len(got) != 0 {
		t.Errorf("prioritized rules flagged: %v", got)
	}
}

func TestRecipeConflicts(t *testing.T) {
	recipes := []Recipe{
		{Name: "lights-on-smoke", TriggerDevice: "nest", TriggerState: "smoke=yes", ActionDevice: "hue", ActionCommand: "ON"},
		{Name: "lights-off-away", TriggerDevice: "presence", TriggerState: "home=no", ActionDevice: "hue", ActionCommand: "OFF"},
		{Name: "lock-at-night", TriggerDevice: "env", TriggerState: "sunset=yes", ActionDevice: "door", ActionCommand: "LOCK"},
		{Name: "unlock-for-person", TriggerDevice: "cam", TriggerState: "person=yes", ActionDevice: "door", ActionCommand: "UNLOCK"},
		// Exclusive triggers: same attr, different value.
		{Name: "a", TriggerDevice: "cam", TriggerState: "person=yes", ActionDevice: "siren", ActionCommand: "ON"},
		{Name: "b", TriggerDevice: "cam", TriggerState: "person=no", ActionDevice: "siren", ActionCommand: "OFF"},
	}
	conflicts := FindRecipeConflicts(recipes)
	// hue ON/OFF conflict and door LOCK/UNLOCK conflict; the siren
	// pair is exclusive.
	if len(conflicts) != 2 {
		t.Fatalf("conflicts = %+v", conflicts)
	}
	devices := map[string]bool{}
	for _, c := range conflicts {
		devices[c.Device] = true
	}
	if !devices["hue"] || !devices["door"] {
		t.Errorf("conflict devices = %v", devices)
	}
}

func TestRecipeToRule(t *testing.T) {
	r := Recipe{Name: "r1", TriggerDevice: "camera", TriggerState: "person=yes", ActionDevice: "wemo", ActionCommand: "ON"}
	rule := r.ToRule(7)
	if rule.Device != "wemo" || rule.Priority != 7 {
		t.Errorf("rule = %+v", rule)
	}
	if len(rule.Conditions) != 1 || rule.Conditions[0].Var != "env:camera_person" || rule.Conditions[0].Value != "yes" {
		t.Errorf("conditions = %+v", rule.Conditions)
	}
}

func TestSynthesizedCorpusMarginals(t *testing.T) {
	corpus := SynthesizeCorpus(1)
	total := 0
	for _, row := range Table2() {
		total += row.Recipes
	}
	if len(corpus) != total {
		t.Fatalf("corpus size = %d, want %d", len(corpus), total)
	}
	// Determinism.
	again := SynthesizeCorpus(1)
	for i := range corpus {
		if corpus[i] != again[i] {
			t.Fatal("corpus not deterministic")
		}
	}
	// Different seeds differ.
	other := SynthesizeCorpus(2)
	same := true
	for i := range corpus {
		if corpus[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds do not vary the corpus")
	}
	// The strawman exposes real conflicts in a realistic corpus.
	if got := FindRecipeConflicts(corpus); len(got) == 0 {
		t.Error("no conflicts in 478-recipe corpus — implausible for the strawman")
	}
}
