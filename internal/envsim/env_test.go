package envsim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestStepAppliesLawsSynchronously(t *testing.T) {
	env := New(map[string]float64{"a": 1, "b": 10})
	// Both laws read the pre-step snapshot: law2 must see a's OLD
	// value even though law1 updates it.
	env.AddLaw(Law{Name: "inc-a", Apply: func(s Snapshot, dt float64) map[string]float64 {
		return map[string]float64{"a": s.Get("a") + 1}
	}})
	var law2Saw float64
	env.AddLaw(Law{Name: "watch-a", Apply: func(s Snapshot, dt float64) map[string]float64 {
		law2Saw = s.Get("a")
		return nil
	}})
	env.Step()
	if env.Get("a") != 2 {
		t.Errorf("a = %v, want 2", env.Get("a"))
	}
	if law2Saw != 1 {
		t.Errorf("law2 saw a=%v, want pre-step value 1", law2Saw)
	}
	if env.Tick() != 1 {
		t.Errorf("tick = %d", env.Tick())
	}
}

func TestObserversSeeChanges(t *testing.T) {
	env := New(map[string]float64{"x": 0})
	env.AddLaw(Law{Name: "bump", Apply: func(s Snapshot, dt float64) map[string]float64 {
		return map[string]float64{"x": s.Get("x") + 1}
	}})
	var changes []map[string]float64
	env.AddObserver(func(s Snapshot, changed map[string]float64) {
		changes = append(changes, changed)
	})
	env.Run(3)
	if len(changes) != 3 {
		t.Fatalf("observer fired %d times", len(changes))
	}
	if changes[2]["x"] != 3 {
		t.Errorf("final change = %v", changes[2])
	}
}

func TestThermalLawRelaxesTowardOutside(t *testing.T) {
	env := StandardHome() // inside 22, outside 30
	env.Run(600)          // 10 simulated minutes, windows closed
	closedTemp := env.Get(VarTemperature)
	if closedTemp <= 22 || closedTemp >= 30 {
		t.Errorf("closed-window temp = %.2f, want between 22 and 30", closedTemp)
	}

	// With the window open the room tracks outside much faster.
	env2 := StandardHome()
	env2.Set(VarWindowOpen, 1)
	env2.Run(600)
	openTemp := env2.Get(VarTemperature)
	if openTemp <= closedTemp {
		t.Errorf("open-window temp %.2f should exceed closed-window temp %.2f", openTemp, closedTemp)
	}
	if math.Abs(openTemp-30) > 1 {
		t.Errorf("open-window temp %.2f should be near outside 30", openTemp)
	}
}

func TestThermalHeatSource(t *testing.T) {
	// This is the paper's §2.1 attack physics: kill the A/C (here:
	// add oven heat), room heats past the threshold.
	env := StandardHome()
	env.Set("oven_heat_rate", 0.01) // +0.01 °C/s
	env.Run(600)
	if env.Get(VarTemperature) < 26 {
		t.Errorf("temp = %.2f, want noticeably heated", env.Get(VarTemperature))
	}
}

func TestSmokeLawSourceAndVentilation(t *testing.T) {
	env := StandardHome()
	env.Set("smoke_source_rate", 0.01)
	env.Run(60)
	smokey := env.Get(VarSmoke)
	if smokey < 0.2 {
		t.Fatalf("smoke = %.3f, want above alarm threshold", smokey)
	}
	// Stop the source, open the window: smoke clears fast.
	env.Set("smoke_source_rate", 0)
	env.Set(VarWindowOpen, 1)
	env.Run(120)
	if env.Get(VarSmoke) > smokey/2 {
		t.Errorf("smoke after ventilation = %.3f, want well below %.3f", env.Get(VarSmoke), smokey)
	}
}

func TestSmokeClamped(t *testing.T) {
	env := StandardHome()
	env.Set("smoke_source_rate", 10)
	env.Run(100)
	if s := env.Get(VarSmoke); s > 1 {
		t.Errorf("smoke = %v, must be clamped to 1", s)
	}
}

func TestPowerLawAggregates(t *testing.T) {
	env := StandardHome()
	env.Set("hvac_power", 2000)
	env.Set("oven_power", 1500)
	env.Step()
	if got := env.Get(VarPower); got != 120+2000+1500 {
		t.Errorf("power = %v", got)
	}
}

func TestDiscretizerBands(t *testing.T) {
	d := StandardDiscretizer()
	cases := []struct {
		varName string
		v       float64
		want    string
	}{
		{VarTemperature, 10, "low"},
		{VarTemperature, 22, "normal"},
		{VarTemperature, 35, "high"},
		{VarSmoke, 0, "no"},
		{VarSmoke, 0.9, "yes"},
		{VarOccupancy, 0, "away"},
		{VarOccupancy, 1, "home"},
		{VarWindowOpen, 0, "closed"},
		{VarWindowOpen, 1, "open"},
	}
	for _, c := range cases {
		if got := d.Value(c.varName, c.v); got != c.want {
			t.Errorf("Value(%s, %v) = %q, want %q", c.varName, c.v, got, c.want)
		}
	}
	if got := d.Value("unknown_var", 5); got != "" {
		t.Errorf("unknown variable discretized to %q", got)
	}
}

func TestDiscretizerBoundariesProperty(t *testing.T) {
	d := StandardDiscretizer()
	// Every float maps to exactly one non-empty level for defined
	// variables.
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return true
		}
		lv := d.Value(VarTemperature, v)
		return lv == "low" || lv == "normal" || lv == "high"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyStable(t *testing.T) {
	a := Key(map[string]string{"b": "2", "a": "1"})
	b := Key(map[string]string{"a": "1", "b": "2"})
	if a != b || a != "a=1,b=2" {
		t.Errorf("keys %q / %q", a, b)
	}
}

func TestDiscretizeSnapshot(t *testing.T) {
	env := StandardHome()
	d := StandardDiscretizer()
	got := d.Discretize(env.Snapshot())
	if got[VarTemperature] != "normal" || got[VarSmoke] != "no" || got[VarOccupancy] != "home" {
		t.Errorf("discretized = %v", got)
	}
}

func TestSnapshotAccessorsAndAdjust(t *testing.T) {
	env := New(map[string]float64{"b": 2, "a": 1.5})
	if env.Get("a") != 1.5 {
		t.Errorf("get: %v", env.Get("a"))
	}
	s := env.Snapshot()
	if !s.Has("a") || s.Has("ghost") {
		t.Error("Has wrong")
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v", names)
	}
	str := env.String()
	if !strings.Contains(str, "tick=0") || !strings.Contains(str, "a=1.50") {
		t.Errorf("string = %q", str)
	}
}

func TestDiscretizerIntrospection(t *testing.T) {
	d := StandardDiscretizer()
	vars := d.Variables()
	if len(vars) < 5 {
		t.Errorf("variables = %v", vars)
	}
	levels := d.bands[VarTemperature]
	if len(levels) != 3 || levels[0].Name != "low" || levels[2].Name != "high" {
		t.Errorf("levels = %v", levels)
	}
	if got := d.bands["ghost"]; len(got) != 0 {
		t.Errorf("ghost levels = %v", got)
	}
}
