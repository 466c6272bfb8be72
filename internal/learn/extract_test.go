package learn

import (
	"testing"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/envsim"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
)

// extractionTestbed wires one device and a client on a switch with a
// standard home environment.
func extractionTestbed(t *testing.T, d *device.Device, stateKey, user, pass string) *Testbed {
	t.Helper()
	n := netsim.NewNetwork()
	sw := netsim.NewSwitch("sw", 1)
	env := envsim.StandardHome()

	port, err := d.Attach(n)
	if err != nil {
		t.Fatal(err)
	}
	sw.Attach(n, port, d.MAC())
	d.BindEnvironment(env)

	clientIP := packet.MustParseIPv4("10.0.0.200")
	st := netsim.NewStack("probe", device.MACFor(clientIP), clientIP)
	sw.Attach(n, st.Attach(n), st.MAC())
	n.Start()
	t.Cleanup(func() {
		st.Stop()
		d.Stop()
		n.Stop()
	})
	return &Testbed{
		Client:   &device.Client{Stack: st, Timeout: time.Second},
		Device:   d,
		Env:      env,
		Disc:     envsim.StandardDiscretizer(),
		StateKey: stateKey,
		User:     user,
		Pass:     pass,
	}
}

func TestExtractBulbModel(t *testing.T) {
	bulb := device.NewSmartBulb("bulb", packet.MustParseIPv4("10.0.0.10"))
	tb := extractionTestbed(t, bulb.Device, "light", "hue", "hue")
	// Darken the ambient so the lamp's effect is observable.
	tb.Env.Set("daylight", 0)

	m, err := ExtractModel(tb, "bulb-extracted", []string{"ON", "OFF"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Initial != "off" {
		t.Errorf("initial = %q", m.Initial)
	}
	if got := m.Transitions["ON"]["off"]; got != "on" {
		t.Errorf("ON from off -> %q", got)
	}
	if got := m.Transitions["OFF"]["on"]; got != "off" {
		t.Errorf("OFF from on -> %q", got)
	}
	// The empirical effect: while on, the room is lit.
	var lit bool
	for _, e := range m.Effects["on"] {
		if e.Var == envsim.VarLight && e.Level == "lit" {
			lit = true
		}
	}
	if !lit {
		t.Errorf("effects[on] = %v, want light=lit", m.Effects["on"])
	}
}

func TestExtractWindowModel(t *testing.T) {
	win := device.NewWindowActuator("win", packet.MustParseIPv4("10.0.0.11"))
	tb := extractionTestbed(t, win.Device, "window", "admin", device.WindowPassword)

	m, err := ExtractModel(tb, "window-extracted", []string{"OPEN", "CLOSE"})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Transitions["OPEN"]["closed"]; got != "open" {
		t.Errorf("OPEN from closed -> %q", got)
	}
	var opens bool
	for _, e := range m.Effects["open"] {
		if e.Var == envsim.VarWindowOpen && e.Level == "open" {
			opens = true
		}
	}
	if !opens {
		t.Errorf("effects[open] = %v", m.Effects["open"])
	}
}

func TestExtractedModelUsableByFuzzerAndSearch(t *testing.T) {
	// Extract a live bulb, then plug the model into the abstract
	// world next to the hand-written light sensor: the implicit
	// coupling must still be discoverable.
	bulb := device.NewSmartBulb("bulb", packet.MustParseIPv4("10.0.0.12"))
	tb := extractionTestbed(t, bulb.Device, "light", "hue", "hue")
	tb.Env.Set("daylight", 0)
	extracted, err := ExtractModel(tb, "bulb-extracted", []string{"ON", "OFF"})
	if err != nil {
		t.Fatal(err)
	}

	lib := StandardLibrary()
	sensorModel, _ := lib.Get("light-sensor")
	build := func() *World {
		w := NewWorld(map[string]string{"light": "dark"})
		w.AddInstance("bulb", extracted)
		w.AddInstance("sensor", sensorModel)
		return w
	}
	result := NewFuzzer(build, 9).Run(100)
	if _, ok := result.Discovered["bulb.ON->sensor=lit"]; !ok {
		t.Errorf("extracted model missed the implicit coupling: %v", result.Interactions())
	}
}

func TestExtractModelRejectsUnauthorized(t *testing.T) {
	bulb := device.NewSmartBulb("bulb", packet.MustParseIPv4("10.0.0.13"))
	tb := extractionTestbed(t, bulb.Device, "light", "hue", "wrong-password")
	m, err := ExtractModel(tb, "bulb-x", []string{"ON", "OFF"})
	if err != nil {
		t.Fatalf("extraction errored: %v", err)
	}
	// Unauthorized commands are skipped, so no transitions are
	// learned — the model is just the initial state.
	if len(m.Transitions) != 0 {
		t.Errorf("transitions learned without credentials: %v", m.Transitions)
	}
}
