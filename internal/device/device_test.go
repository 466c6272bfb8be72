package device

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"iotsec/internal/envsim"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
)

func TestRequestCodecRoundTrip(t *testing.T) {
	cases := []Request{
		{Cmd: "STATUS"},
		{Cmd: "ON", User: "admin", Pass: "admin"},
		{Cmd: "SET_TARGET", Args: []string{"25.5"}, User: "nest", Pass: "nest"},
		{Cmd: "RELAY", Args: []string{"10.0.0.9", "100"}},
	}
	for _, want := range cases {
		got, err := ParseRequest(want.Encode())
		if err != nil {
			t.Fatalf("parse %q: %v", want.Encode(), err)
		}
		if got.Cmd != want.Cmd || got.User != want.User || got.Pass != want.Pass {
			t.Errorf("round trip: got %+v want %+v", got, want)
		}
		if len(got.Args) != len(want.Args) {
			t.Errorf("args: got %v want %v", got.Args, want.Args)
		}
	}
}

func TestRequestCodecProperty(t *testing.T) {
	// Any command/user/pass without whitespace or separators must
	// survive the round trip.
	clean := func(s string) string {
		s = strings.Map(func(r rune) rune {
			if r == ' ' || r == '\n' || r == ':' || r < 32 || r > 126 {
				return -1
			}
			return r
		}, s)
		if s == "" {
			return "X"
		}
		return s
	}
	f := func(cmd, user, pass string) bool {
		want := Request{Cmd: strings.ToUpper(clean(cmd)), User: clean(user), Pass: clean(pass)}
		got, err := ParseRequest(want.Encode())
		return err == nil && got.Cmd == want.Cmd && got.User == want.User && got.Pass == want.Pass
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestResponseCodec(t *testing.T) {
	ok, err := ParseResponse(Response{OK: true, Data: "power=on"}.Encode())
	if err != nil || !ok.OK || ok.Data != "power=on" {
		t.Errorf("ok response: %+v %v", ok, err)
	}
	bad, err := ParseResponse(Response{OK: false, Data: "unauthorized"}.Encode())
	if err != nil || bad.OK || bad.Data != "unauthorized" {
		t.Errorf("err response: %+v %v", bad, err)
	}
	if _, err := ParseResponse([]byte("HTTP/1.1 200")); err == nil {
		t.Error("foreign protocol accepted")
	}
}

// testbed wires devices and a client stack onto one switch.
type testbed struct {
	net    *netsim.Network
	sw     *netsim.Switch
	env    *envsim.Environment
	client *Client
}

func newTestbed(t *testing.T) *testbed {
	t.Helper()
	tb := &testbed{
		net: netsim.NewNetwork(),
		sw:  netsim.NewSwitch("sw", 1),
		env: envsim.StandardHome(),
	}

	clientStack := netsim.NewStack("client", MACFor(packet.MustParseIPv4("10.0.0.250")), packet.MustParseIPv4("10.0.0.250"))
	tb.sw.Attach(tb.net, clientStack.Attach(tb.net), clientStack.MAC())
	tb.client = &Client{Stack: clientStack}
	t.Cleanup(func() {
		clientStack.Stop()
		tb.net.Stop()
	})
	return tb
}

// add attaches a device to the fabric and environment.
func (tb *testbed) add(t *testing.T, d *Device) {
	t.Helper()
	p, err := d.Attach(tb.net)
	if err != nil {
		t.Fatal(err)
	}
	tb.sw.Attach(tb.net, p, d.MAC())
	d.BindEnvironment(tb.env)
	t.Cleanup(d.Stop)
}

func TestCameraDefaultCredentialVulnerability(t *testing.T) {
	tb := newTestbed(t)
	cam := NewCamera("cam1", packet.MustParseIPv4("10.0.0.10"))
	tb.add(t, cam.Device)
	tb.net.Start()

	// Wrong password refused.
	resp, err := tb.client.Call(cam.IP(), Request{Cmd: "SNAPSHOT", User: "admin", Pass: "wrong"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Error("wrong password accepted")
	}
	// Factory default accepted — the Table 1 row 1 flaw.
	resp, err = tb.client.Call(cam.IP(), Request{Cmd: "SNAPSHOT", User: "admin", Pass: "admin"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || !strings.HasPrefix(resp.Data, "jpeg:") {
		t.Errorf("default creds should yield a snapshot: %+v", resp)
	}
	// And the firmware refuses to change the password.
	resp, _ = tb.client.Call(cam.IP(), Request{Cmd: "SET_PASSWORD", User: "admin", Pass: "admin", Args: []string{"better"}})
	if resp.OK {
		t.Error("SET_PASSWORD should be unsupported on this firmware")
	}
}

func TestPlugBackdoorBypassesAuth(t *testing.T) {
	tb := newTestbed(t)
	plug := NewSmartPlug("wemo1", packet.MustParseIPv4("10.0.0.11"), Appliance{
		Name: "oven", PowerVar: "oven_power", Watts: 1800, HeatVar: "oven_heat_rate", HeatRate: 0.02,
	})
	tb.add(t, plug.Device)
	tb.net.Start()

	var events []Event
	var mu sync.Mutex
	plug.SetEventSink(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})

	// No credentials, no backdoor token: refused.
	resp, err := tb.client.Call(plug.IP(), Request{Cmd: "ON"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("unauthenticated ON accepted without backdoor")
	}
	// Backdoor token: accepted, and the appliance heats the room.
	resp, err = tb.client.Call(plug.IP(), Request{Cmd: "ON", Args: []string{PlugBackdoorToken}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("backdoor rejected: %+v", resp)
	}
	if tb.env.Get("oven_heat_rate") != 0.02 || tb.env.Get("oven_power") != 1800 {
		t.Errorf("appliance env vars not driven: heat=%v power=%v",
			tb.env.Get("oven_heat_rate"), tb.env.Get("oven_power"))
	}
	mu.Lock()
	defer mu.Unlock()
	var sawBackdoor bool
	for _, e := range events {
		if e.Kind == EventBackdoorAccess {
			sawBackdoor = true
		}
	}
	if !sawBackdoor {
		t.Error("backdoor access did not emit an event")
	}
}

func TestOpenAccessDevices(t *testing.T) {
	tb := newTestbed(t)
	tl := NewTrafficLight("tl1", packet.MustParseIPv4("10.0.0.12"))
	stb := NewSetTopBox("stb1", packet.MustParseIPv4("10.0.0.13"))
	tb.add(t, tl.Device)
	tb.add(t, stb.Device)
	tb.net.Start()

	// Traffic light: no credentials needed (Table 1 row 5).
	resp, err := tb.client.Call(tl.IP(), Request{Cmd: "SET", Args: []string{"green"}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || tl.Get("phase") != "green" {
		t.Errorf("open traffic light refused: %+v", resp)
	}
	if resp, _ := tb.client.Call(tl.IP(), Request{Cmd: "SET", Args: []string{"purple"}}); resp.OK {
		t.Error("invalid phase accepted")
	}
	// Set-top box leaks subscriber info without auth (row 2).
	resp, err = tb.client.Call(stb.IP(), Request{Cmd: "INFO"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || !strings.Contains(resp.Data, "subscriber=") {
		t.Errorf("set-top box info: %+v", resp)
	}
}

func TestCCTVExposedKeyCompromisesWholeSKU(t *testing.T) {
	tb := newTestbed(t)
	const sharedKey = "rsa-XYZZY-3000"
	cam1 := NewCCTV("cctv1", packet.MustParseIPv4("10.0.0.20"), sharedKey)
	cam2 := NewCCTV("cctv2", packet.MustParseIPv4("10.0.0.21"), sharedKey)
	tb.add(t, cam1.Device)
	tb.add(t, cam2.Device)
	tb.net.Start()

	// Step 1: download firmware from cam1 without credentials.
	resp, err := tb.client.Call(cam1.IP(), Request{Cmd: "FIRMWARE"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("firmware download refused: %+v", resp)
	}
	// Step 2: extract the key.
	idx := strings.Index(resp.Data, "rsa_private=")
	if idx < 0 {
		t.Fatalf("no key in firmware blob %q", resp.Data)
	}
	key := resp.Data[idx+len("rsa_private="):]
	// Step 3: the key unlocks a *different* unit of the same SKU.
	resp, err = tb.client.Call(cam2.IP(), Request{Cmd: "SNAPSHOT", User: "fwadmin", Pass: key})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Errorf("extracted key should compromise every unit: %+v", resp)
	}
}

func TestWindowActuatorDrivesEnvironment(t *testing.T) {
	tb := newTestbed(t)
	win := NewWindowActuator("win1", packet.MustParseIPv4("10.0.0.14"))
	tb.add(t, win.Device)
	tb.net.Start()

	resp, err := tb.client.Call(win.IP(), Request{Cmd: "OPEN", User: "admin", Pass: WindowPassword})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("open refused: %+v", resp)
	}
	if tb.env.Get(envsim.VarWindowOpen) != 1 {
		t.Error("window_open not set in environment")
	}
	if _, err := tb.client.Call(win.IP(), Request{Cmd: "CLOSE", User: "admin", Pass: WindowPassword}); err != nil {
		t.Fatal(err)
	}
	if tb.env.Get(envsim.VarWindowOpen) != 0 {
		t.Error("window_open not cleared")
	}
}

func TestFireAlarmSensesSmoke(t *testing.T) {
	tb := newTestbed(t)
	alarm := NewFireAlarm("fa1", packet.MustParseIPv4("10.0.0.15"))
	tb.add(t, alarm.Device)
	tb.net.Start()

	events := make(chan Event, 16)
	alarm.SetEventSink(func(e Event) {
		select {
		case events <- e:
		default:
		}
	})

	tb.env.Set("smoke_source_rate", 0.02)
	tb.env.Run(30)
	if alarm.Get("alarm") != "alarm" {
		t.Fatalf("alarm state = %q after smoke", alarm.Get("alarm"))
	}
	var sawSmoke bool
	for {
		select {
		case e := <-events:
			if e.Kind == EventSensor && e.Detail == "smoke=yes" {
				sawSmoke = true
			}
			continue
		default:
		}
		break
	}
	if !sawSmoke {
		t.Error("no smoke sensor event emitted")
	}
	// Clear the smoke: alarm resets.
	tb.env.Set("smoke_source_rate", 0)
	tb.env.Set(envsim.VarWindowOpen, 1)
	tb.env.Run(300)
	if alarm.Get("alarm") != "ok" {
		t.Errorf("alarm did not reset, smoke=%v", tb.env.Get(envsim.VarSmoke))
	}
}

func TestThermostatControlLoop(t *testing.T) {
	tb := newTestbed(t)
	th := NewThermostat("th1", packet.MustParseIPv4("10.0.0.16"))
	tb.add(t, th.Device)
	tb.net.Start()

	// Room starts at 22, outside 30; target 22 → idle-ish. Crank the
	// target up: the thermostat should switch to heating.
	resp, err := tb.client.Call(th.IP(), Request{Cmd: "SET_TARGET", Args: []string{"28"}, User: "nest", Pass: "nest"})
	if err != nil || !resp.OK {
		t.Fatalf("set target: %v %+v", err, resp)
	}
	tb.env.Run(5)
	if th.Get("hvac") != "heating" {
		t.Errorf("hvac = %q, want heating", th.Get("hvac"))
	}
	before := tb.env.Get(envsim.VarTemperature)
	tb.env.Run(600)
	after := tb.env.Get(envsim.VarTemperature)
	if after <= before {
		t.Errorf("temperature did not rise under heating: %.2f -> %.2f", before, after)
	}
	// Mode off stops the HVAC.
	if resp, _ := tb.client.Call(th.IP(), Request{Cmd: "SET_MODE", Args: []string{"off"}, User: "nest", Pass: "nest"}); !resp.OK {
		t.Fatalf("set mode: %+v", resp)
	}
	tb.env.Run(2)
	if tb.env.Get("hvac_power") != 0 {
		t.Error("hvac power still drawn in mode off")
	}
}

func TestSmartMeterCalibrationFraud(t *testing.T) {
	tb := newTestbed(t)
	meter := NewSmartMeter("meter1", packet.MustParseIPv4("10.0.0.17"))
	tb.add(t, meter.Device)
	tb.net.Start()
	tb.env.Step()

	honest, err := tb.client.Call(meter.IP(), Request{Cmd: "READ"})
	if err != nil || !honest.OK {
		t.Fatalf("read: %v %+v", err, honest)
	}
	// Anyone can lower the bill (no auth on calibration).
	if resp, _ := tb.client.Call(meter.IP(), Request{Cmd: "SET_CALIBRATION", Args: []string{"0.1"}}); !resp.OK {
		t.Fatalf("calibration refused: %+v", resp)
	}
	cooked, _ := tb.client.Call(meter.IP(), Request{Cmd: "READ"})
	if cooked.Data == honest.Data {
		t.Errorf("calibration fraud had no effect: %q vs %q", cooked.Data, honest.Data)
	}
}

func TestFridgeSpamRelay(t *testing.T) {
	tb := newTestbed(t)
	fridge := NewSmartFridge("fridge1", packet.MustParseIPv4("10.0.0.18"))
	tb.add(t, fridge.Device)

	// A victim mail server on the LAN counts arriving spam.
	victimStack := netsim.NewStack("victim", MACFor(packet.MustParseIPv4("10.0.0.99")), packet.MustParseIPv4("10.0.0.99"))
	tb.sw.Attach(tb.net, victimStack.Attach(tb.net), victimStack.MAC())
	t.Cleanup(victimStack.Stop)
	var got sync.WaitGroup
	got.Add(25)
	var count int
	var mu sync.Mutex
	if err := victimStack.HandleUDP(25, func(_ packet.IPv4Address, _ uint16, payload []byte) {
		mu.Lock()
		count++
		mu.Unlock()
		got.Done()
	}); err != nil {
		t.Fatal(err)
	}
	tb.net.Start()

	resp, err := tb.client.Call(fridge.IP(), Request{Cmd: "RELAY", Args: []string{"10.0.0.99", "25"}})
	if err != nil || !resp.OK {
		t.Fatalf("relay: %v %+v", err, resp)
	}
	done := make(chan struct{})
	go func() { got.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		mu.Lock()
		t.Fatalf("only %d/25 spam messages arrived", count)
	}
	if fridge.SpamSent() != 25 {
		t.Errorf("spam counter = %d", fridge.SpamSent())
	}
}

func TestPlugOpenDNSResolverAmplifies(t *testing.T) {
	tb := newTestbed(t)
	plug := NewSmartPlug("wemo2", packet.MustParseIPv4("10.0.0.30"), Appliance{Name: "lamp"})
	tb.add(t, plug.Device)
	if err := plug.StartDNSResolver(20); err != nil {
		t.Fatal(err)
	}
	tb.net.Start()

	// Query from the client: response must be much larger.
	respLen := make(chan int, 1)
	if err := tb.client.Stack.HandleUDP(5353, func(_ packet.IPv4Address, _ uint16, payload []byte) {
		respLen <- len(payload)
	}); err != nil {
		t.Fatal(err)
	}
	query := &packet.DNS{
		ID:         7,
		RecDesired: true,
		Questions:  []packet.DNSQuestion{{Name: "example.com", Type: packet.DNSTypeANY, Class: packet.DNSClassIN}},
	}
	b := packet.NewSerializeBuffer()
	if err := query.SerializeTo(b); err != nil {
		t.Fatal(err)
	}
	qLen := b.Len()
	if err := tb.client.Stack.SendUDP(plug.IP(), 53, 5353, b.Bytes()); err != nil {
		t.Fatal(err)
	}
	select {
	case rl := <-respLen:
		if rl < qLen*10 {
			t.Errorf("amplification factor %d/%d too small", rl, qLen)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("resolver never answered")
	}
}

func TestDeviceUnknownCommandAndBadRequest(t *testing.T) {
	tb := newTestbed(t)
	tl := NewTrafficLight("tl2", packet.MustParseIPv4("10.0.0.40"))
	tb.add(t, tl.Device)
	tb.net.Start()

	resp, err := tb.client.Call(tl.IP(), Request{Cmd: "EXPLODE"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Error("unknown command accepted")
	}
}

func TestFailedLoginCounting(t *testing.T) {
	tb := newTestbed(t)
	win := NewWindowActuator("win2", packet.MustParseIPv4("10.0.0.41"))
	tb.add(t, win.Device)
	tb.net.Start()

	for i := 0; i < 3; i++ {
		_, _ = tb.client.Call(win.IP(), Request{Cmd: "OPEN", User: "admin", Pass: "guess"})
	}
	if got := win.FailedLogins(tb.client.Stack.IP()); got != 3 {
		t.Errorf("failed logins = %d, want 3", got)
	}
	// A success resets the counter.
	_, _ = tb.client.Call(win.IP(), Request{Cmd: "CLOSE", User: "admin", Pass: WindowPassword})
	if got := win.FailedLogins(tb.client.Stack.IP()); got != 0 {
		t.Errorf("failed logins after success = %d", got)
	}
}
