package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/envsim"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
)

// newClient attaches a fresh host stack (attacker or app) to the
// platform's uplink.
func newClient(t *testing.T, p *Platform, ip string) *device.Client {
	t.Helper()
	addr := packet.MustParseIPv4(ip)
	st := netsim.NewStack("host-"+ip, device.MACFor(addr), addr)
	p.AttachHost(st)
	t.Cleanup(st.Stop)
	return &device.Client{Stack: st, Timeout: time.Second}
}

func TestFigure4PasswordProxyScenario(t *testing.T) {
	// Policy: the camera always sits behind a password proxy
	// enforcing administrator-chosen credentials.
	d := policy.NewDomain()
	d.AddDevice("cam")
	f := policy.NewFSM(d)
	f.AddRule(policy.Rule{
		Name:   "cam-proxy",
		Device: "cam",
		Posture: policy.Posture{Modules: []policy.ModuleSpec{{
			Kind:   "password-proxy",
			Config: map[string]string{"user": "homeadmin", "pass": "s3cret"},
		}}},
		Priority: 1,
	})
	p, err := New(Options{Policy: f})
	if err != nil {
		t.Fatal(err)
	}
	cam := device.NewCamera("cam", packet.MustParseIPv4("10.0.0.10"))
	if _, err := p.AddDevice(cam.Device); err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Stop()

	attacker := newClient(t, p, "10.0.0.200")
	// The factory default that compromises the unprotected camera is
	// now dead on arrival.
	if _, err := attacker.Call(cam.IP(), device.Request{Cmd: "SNAPSHOT", User: "admin", Pass: "admin"}); err == nil {
		t.Fatal("factory credentials still work through IoTSec")
	}
	// The administrator's credentials work.
	admin := newClient(t, p, "10.0.0.201")
	resp, err := admin.Call(cam.IP(), device.Request{Cmd: "SNAPSHOT", User: "homeadmin", Pass: "s3cret"})
	if err != nil || !resp.OK {
		t.Fatalf("admin call failed: %v %+v", err, resp)
	}
}

// figure3Platform assembles the fire-alarm + window deployment with
// the Figure 3 policy.
func figure3Platform(t *testing.T) (*Platform, *device.FireAlarm, *device.WindowActuator) {
	t.Helper()
	d := policy.NewDomain()
	d.AddDevice("firealarm", policy.ContextNormal, policy.ContextSuspicious)
	d.AddDevice("window", policy.ContextNormal, policy.ContextSuspicious)
	f := policy.NewFSM(d)
	f.AddRule(policy.Rule{
		Name:       "alarm-suspicious-blocks-window-open",
		Conditions: []policy.Condition{policy.DeviceIs("firealarm", policy.ContextSuspicious)},
		Device:     "window",
		Posture:    policy.Posture{BlockCommands: []string{"OPEN"}},
		Priority:   10,
	})
	f.AddRule(policy.Rule{
		Name:       "window-suspicious-robot-check",
		Conditions: []policy.Condition{policy.DeviceIs("window", policy.ContextSuspicious)},
		Device:     "window",
		Posture:    policy.Posture{Modules: []policy.ModuleSpec{{Kind: "robot-check"}}},
		Priority:   10,
	})
	p, err := New(Options{Policy: f, ChallengeSolution: "tulip"})
	if err != nil {
		t.Fatal(err)
	}
	alarm := device.NewFireAlarm("firealarm", packet.MustParseIPv4("10.0.0.20"))
	win := device.NewWindowActuator("window", packet.MustParseIPv4("10.0.0.21"))
	if _, err := p.AddDevice(alarm.Device); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddDevice(win.Device); err != nil {
		t.Fatal(err)
	}
	p.Start()
	t.Cleanup(p.Stop)
	return p, alarm, win
}

func TestFigure3BackdoorLocksWindow(t *testing.T) {
	p, alarm, win := figure3Platform(t)
	attacker := newClient(t, p, "10.0.0.210")

	// Sanity: before the attack, the window opens with its (weak)
	// password.
	resp, err := attacker.Call(win.IP(), device.Request{Cmd: "OPEN", User: "admin", Pass: device.WindowPassword})
	if err != nil || !resp.OK {
		t.Fatalf("pre-attack open failed: %v %+v", err, resp)
	}
	if _, err := attacker.Call(win.IP(), device.Request{Cmd: "CLOSE", User: "admin", Pass: device.WindowPassword}); err != nil {
		t.Fatal(err)
	}

	// The attacker touches the fire alarm's backdoor. IoTSec flips
	// the alarm to suspicious and re-postures the WINDOW.
	if _, err := attacker.Call(alarm.IP(), device.Request{Cmd: "TEST", Args: []string{device.AlarmBackdoorToken}}); err != nil {
		t.Fatalf("backdoor call: %v", err)
	}
	if !p.WaitForContext("firealarm", policy.ContextSuspicious, 2*time.Second) {
		t.Fatal("view never marked the alarm suspicious")
	}
	// Now the break-in step is dead: OPEN is blocked in-network even
	// with valid credentials.
	time.Sleep(20 * time.Millisecond) // let the reconfigure land
	if _, err := attacker.Call(win.IP(), device.Request{Cmd: "OPEN", User: "admin", Pass: device.WindowPassword}); err == nil {
		t.Fatal("window OPEN still possible after alarm compromise")
	}
	if win.Get("window") == "open" {
		t.Fatal("window physically opened")
	}
	// CLOSE (not in the block list) still works — the posture is
	// surgical, not an outage.
	if resp, err := attacker.Call(win.IP(), device.Request{Cmd: "CLOSE", User: "admin", Pass: device.WindowPassword}); err != nil || !resp.OK {
		t.Fatalf("CLOSE should still pass: %v %+v", err, resp)
	}
}

func TestFigure3BruteForceTriggersRobotCheck(t *testing.T) {
	p, _, win := figure3Platform(t)
	attacker := newClient(t, p, "10.0.0.211")

	// Online brute force: five wrong PINs.
	for i := 0; i < 5; i++ {
		resp, err := attacker.Call(win.IP(), device.Request{Cmd: "OPEN", User: "admin", Pass: "9999"})
		if err != nil {
			t.Fatalf("attempt %d transport error: %v", i, err)
		}
		if resp.OK {
			t.Fatal("wrong PIN accepted")
		}
	}
	if !p.WaitForContext("window", policy.ContextSuspicious, 2*time.Second) {
		t.Fatal("brute force never escalated")
	}
	time.Sleep(20 * time.Millisecond)

	// The brute-forcer's scripted attempts now die at the robot
	// check, even with the CORRECT password.
	if _, err := attacker.Call(win.IP(), device.Request{Cmd: "OPEN", User: "admin", Pass: device.WindowPassword}); err == nil {
		t.Fatal("scripted request passed the robot check")
	}
	// A human presenting the challenge solution gets through.
	resp, err := attacker.Call(win.IP(), device.Request{
		Cmd: "OPEN", User: "admin", Pass: device.WindowPassword,
		Args: []string{"captcha:tulip"},
	})
	if err != nil || !resp.OK {
		t.Fatalf("challenged request failed: %v %+v", err, resp)
	}
	if win.Get("window") != "open" {
		t.Error("window did not open for the verified human")
	}
}

func TestFigure5CrossDevicePolicy(t *testing.T) {
	// Policy: the Wemo plug's ON command requires the camera to see a
	// person (occupancy=home), expressed as a context gate bound to
	// the global view.
	d := policy.NewDomain()
	d.AddDevice("wemo")
	d.AddDevice("cam")
	d.AddEnvVar(envsim.VarOccupancy, "away", "home")
	f := policy.NewFSM(d)
	f.AddRule(policy.Rule{
		Name:   "oven-needs-person",
		Device: "wemo",
		Posture: policy.Posture{Modules: []policy.ModuleSpec{{
			Kind: "context-gate",
			Config: map[string]string{
				"guard":         "ON",
				"require_env":   envsim.VarOccupancy,
				"require_value": "home",
			},
		}}},
		Priority: 1,
	})
	p, err := New(Options{Policy: f})
	if err != nil {
		t.Fatal(err)
	}
	plug := device.NewSmartPlug("wemo", packet.MustParseIPv4("10.0.0.30"), device.Appliance{
		Name: "oven", PowerVar: "oven_power", Watts: 1800, HeatVar: "oven_heat_rate", HeatRate: 0.02,
	})
	cam := device.NewCamera("cam", packet.MustParseIPv4("10.0.0.31"))
	if _, err := p.AddDevice(plug.Device); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddDevice(cam.Device); err != nil {
		t.Fatal(err)
	}

	// Nobody home.
	p.Env.Set(envsim.VarOccupancy, 0)
	p.Start()
	defer p.Stop()
	p.RunEnvironment(1) // propagate occupancy=away into the view

	attacker := newClient(t, p, "10.0.0.220")
	// Remote attacker uses the Wemo backdoor: the gate must block ON.
	if _, err := attacker.Call(plug.IP(), device.Request{Cmd: "ON", Args: []string{device.PlugBackdoorToken}}); err == nil {
		t.Fatal("ON reached the plug while nobody home")
	}
	if plug.Get("power") == "on" {
		t.Fatal("oven powered while away")
	}

	// Person comes home; the same command now passes (legitimate use
	// keeps working — context-aware, not static).
	p.Env.Set(envsim.VarOccupancy, 1)
	p.RunEnvironment(1)
	time.Sleep(10 * time.Millisecond)
	resp, err := attacker.Call(plug.IP(), device.Request{Cmd: "ON", Args: []string{device.PlugBackdoorToken}})
	if err != nil || !resp.OK {
		t.Fatalf("ON while home failed: %v %+v", err, resp)
	}
	if plug.Get("power") != "on" {
		t.Error("plug not on")
	}
}

func TestIsolationPosture(t *testing.T) {
	d := policy.NewDomain()
	d.AddDevice("stb", policy.ContextNormal, policy.ContextCompromised)
	f := policy.NewFSM(d)
	f.AddRule(policy.Rule{
		Name:       "quarantine-compromised",
		Conditions: []policy.Condition{policy.DeviceIs("stb", policy.ContextCompromised)},
		Device:     "stb",
		Posture:    policy.Posture{Isolate: true},
		Priority:   10,
	})
	p, err := New(Options{Policy: f})
	if err != nil {
		t.Fatal(err)
	}
	stb := device.NewSetTopBox("stb", packet.MustParseIPv4("10.0.0.40"))
	if _, err := p.AddDevice(stb.Device); err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Stop()

	client := newClient(t, p, "10.0.0.230")
	if resp, err := client.Call(stb.IP(), device.Request{Cmd: "INFO"}); err != nil || !resp.OK {
		t.Fatalf("pre-quarantine call failed: %v %+v", err, resp)
	}
	// The admin marks it compromised (e.g., after a sigrepo alert).
	p.Global.View.SetDeviceContext(context.Background(), "stb", policy.ContextCompromised, "manual quarantine")
	time.Sleep(20 * time.Millisecond)
	if _, err := client.Call(stb.IP(), device.Request{Cmd: "INFO"}); err == nil {
		t.Fatal("isolated device still reachable")
	}
}

func TestSignatureRuleDeployment(t *testing.T) {
	// An IDS posture starts with zero rules; a crowdsourced signature
	// arrives and the running µmbox picks it up, flagging the device
	// on match.
	d := policy.NewDomain()
	d.AddDevice("wemo", policy.ContextNormal, policy.ContextSuspicious, policy.ContextCompromised)
	f := policy.NewFSM(d)
	f.AddRule(policy.Rule{
		Name:     "wemo-ids",
		Device:   "wemo",
		Posture:  policy.Posture{Modules: []policy.ModuleSpec{{Kind: "ids"}}},
		Priority: 1,
	})
	p, err := New(Options{Policy: f})
	if err != nil {
		t.Fatal(err)
	}
	plug := device.NewSmartPlug("wemo", packet.MustParseIPv4("10.0.0.50"), device.Appliance{Name: "lamp"})
	if _, err := p.AddDevice(plug.Device); err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Stop()
	client := newClient(t, p, "10.0.0.240")

	// Backdoor traffic passes silently pre-signature (transport OK).
	if _, err := client.Call(plug.IP(), device.Request{Cmd: "OFF", Args: []string{device.PlugBackdoorToken}}); err != nil {
		t.Fatalf("pre-signature call: %v", err)
	}
	if p.Global.View.DeviceContext("wemo") == policy.ContextCompromised {
		t.Skip("backdoor event already escalated — fine, but this test targets the IDS path")
	}

	// The community publishes the backdoor token signature.
	sig := `block tcp any any -> any 80 (msg:"wemo backdoor token"; content:"` + device.PlugBackdoorToken + `"; sid:9001;)`
	if err := p.AddSignatureRule(plug.Profile.SKU, sig); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)

	// The same attack now dies in the IDS, and the view escalates to
	// compromised (block-action alert).
	if _, err := client.Call(plug.IP(), device.Request{Cmd: "OFF", Args: []string{device.PlugBackdoorToken}}); err == nil {
		t.Fatal("signature did not block the backdoor traffic")
	}
	if !p.WaitForContext("wemo", policy.ContextCompromised, 2*time.Second) {
		t.Error("block alert did not escalate the context")
	}
}

func TestMetricsAndManagerIntegration(t *testing.T) {
	p, _, _ := figure3Platform(t)
	boots, mean, _ := p.Manager.Metrics()
	if boots != 2 {
		t.Errorf("boots = %d", boots)
	}
	if mean <= 0 {
		t.Errorf("mean boot = %v", mean)
	}
	reconf, _ := p.Metrics()
	if reconf == 0 {
		t.Error("no initial posture applications recorded")
	}
}

func TestHotPlugDeviceGetsPostureImmediately(t *testing.T) {
	d := policy.NewDomain()
	d.AddDevice("cam")
	f := policy.NewFSM(d)
	f.AddRule(policy.Rule{
		Name:   "cam-proxy",
		Device: "cam",
		Posture: policy.Posture{Modules: []policy.ModuleSpec{{
			Kind:   "password-proxy",
			Config: map[string]string{"user": "homeadmin", "pass": "pw"},
		}}},
		Priority: 1,
	})
	p, err := New(Options{Policy: f})
	if err != nil {
		t.Fatal(err)
	}
	p.Start() // started BEFORE the device exists
	defer p.Stop()

	cam := device.NewCamera("cam", packet.MustParseIPv4("10.0.0.10"))
	if _, err := p.AddDevice(cam.Device); err != nil {
		t.Fatal(err)
	}
	attacker := newClient(t, p, "10.0.0.200")
	// The proxy must already be in place — no window of exposure.
	if _, err := attacker.Call(cam.IP(), device.Request{Cmd: "SNAPSHOT", User: "admin", Pass: "admin"}); err == nil {
		t.Fatal("hot-plugged device exposed before posture applied")
	}
	if resp, err := attacker.Call(cam.IP(), device.Request{Cmd: "SNAPSHOT", User: "homeadmin", Pass: "pw"}); err != nil || !resp.OK {
		t.Fatalf("admin path broken: %v %+v", err, resp)
	}
}

// TestHotPlugUndeclaredDeviceFailsClosed: a camera the policy domain
// does not declare would never be postured, so AddDevice refuses it
// before attaching anything, and its factory credentials reach
// nothing. A declared device's µmbox starts on the quarantine chain and
// keeps it until its first posture lands.
func TestHotPlugUndeclaredDeviceFailsClosed(t *testing.T) {
	d := policy.NewDomain()
	d.AddDevice("cam")
	p, err := New(Options{Policy: policy.NewFSM(d)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.AddDevice(device.NewCamera("cam", packet.MustParseIPv4("10.0.0.10")).Device)
	if err != nil {
		t.Fatal(err)
	}
	if elems := m.Instance.Mbox.Pipeline().Elements(); len(elems) != 1 {
		t.Fatalf("launch pipeline %v, want the one-element quarantine chain", elems)
	}
	p.Start()
	defer p.Stop()

	rogue := device.NewCamera("rogue-cam", packet.MustParseIPv4("10.0.0.11"))
	_, addErr := p.AddDevice(rogue.Device)
	attacker := newClient(t, p, "10.0.0.200")
	if resp, err := attacker.Call(rogue.IP(), device.Request{Cmd: "SNAPSHOT", User: "admin", Pass: "admin"}); err == nil {
		t.Fatalf("undeclared hot-plugged camera answered a default-credential SNAPSHOT: %+v", resp)
	}
	if addErr == nil {
		t.Fatal("AddDevice accepted a device the policy domain does not declare")
	}
}

// TestPlatformStartAddsFewGoroutines: delivery runs on the senders'
// goroutines, so starting a 32-camera platform — a switch, 32 µmboxes
// and 32 device stacks, over a hundred ports — starts almost no
// goroutines of its own.
func TestPlatformStartAddsFewGoroutines(t *testing.T) {
	d := policy.NewDomain()
	for i := 0; i < 32; i++ {
		d.AddDevice(fmt.Sprintf("cam%d", i))
	}
	p, err := New(Options{Policy: policy.NewFSM(d)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		cam := device.NewCamera(fmt.Sprintf("cam%d", i), packet.IPv4Address{10, 0, 7, byte(10 + i)})
		if _, err := p.AddDevice(cam.Device); err != nil {
			t.Fatal(err)
		}
	}
	before := runtime.NumGoroutine()
	p.Start()
	t.Cleanup(p.Stop)
	if added := runtime.NumGoroutine() - before; added > 2 {
		t.Fatalf("Start added %d goroutines, want at most 2", added)
	}
}
