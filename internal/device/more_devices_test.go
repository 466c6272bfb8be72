package device

import (
	"strings"
	"testing"

	"iotsec/internal/envsim"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
)

func TestSmartLockAuthAndStates(t *testing.T) {
	tb := newTestbed(t)
	lock := NewSmartLock("lock1", packet.MustParseIPv4("10.0.0.60"), "owner", "X9!long")
	tb.add(t, lock.Device)
	tb.net.Start()

	if resp, _ := tb.client.Call(lock.IP(), Request{Cmd: "UNLOCK"}); resp.OK {
		t.Fatal("unauthenticated unlock accepted")
	}
	resp, err := tb.client.Call(lock.IP(), Request{Cmd: "UNLOCK", User: "owner", Pass: "X9!long"})
	if err != nil || !resp.OK {
		t.Fatalf("owner unlock: %v %+v", err, resp)
	}
	if lock.Get("lock") != "unlocked" {
		t.Error("lock state not updated")
	}
	if resp, _ := tb.client.Call(lock.IP(), Request{Cmd: "LOCK", User: "owner", Pass: "X9!long"}); !resp.OK {
		t.Errorf("lock back failed: %+v", resp)
	}
	if lock.Profile.HasVuln(VulnOpenAccess) {
		t.Error("lock should have no open-access flaw")
	}
}

func TestSmartBulbDrivesLightAndSensorReads(t *testing.T) {
	tb := newTestbed(t)
	bulb := NewSmartBulb("bulb1", packet.MustParseIPv4("10.0.0.61"))
	sensor := NewLightSensor("ls1", packet.MustParseIPv4("10.0.0.62"))
	tb.add(t, bulb.Device)
	tb.add(t, sensor.Device)
	tb.env.Set("daylight", 0)
	tb.net.Start()
	tb.env.Run(2)

	// Dark room: sensor reads near zero.
	resp, err := tb.client.Call(sensor.IP(), Request{Cmd: "READ"})
	if err != nil || !resp.OK {
		t.Fatalf("sensor read: %v %+v", err, resp)
	}
	if resp.Data != "light=0" {
		t.Errorf("dark reading = %q", resp.Data)
	}
	// Bulb on: the sensor sees it THROUGH THE ROOM.
	if resp, _ := tb.client.Call(bulb.IP(), Request{Cmd: "ON", User: "hue", Pass: "hue"}); !resp.OK {
		t.Fatalf("bulb on: %+v", resp)
	}
	tb.env.Run(2)
	resp, _ = tb.client.Call(sensor.IP(), Request{Cmd: "READ"})
	if resp.Data != "light=400" {
		t.Errorf("lit reading = %q", resp.Data)
	}
	if sensor.Get("light") != "lit" {
		t.Errorf("sensor state = %q", sensor.Get("light"))
	}
	// Off again.
	if resp, _ := tb.client.Call(bulb.IP(), Request{Cmd: "OFF", User: "hue", Pass: "hue"}); !resp.OK {
		t.Fatalf("bulb off: %+v", resp)
	}
	tb.env.Run(2)
	if sensor.Get("light") != "dark" {
		t.Errorf("sensor did not darken: %q", sensor.Get("light"))
	}
}

func TestSmartOvenHeatsRoom(t *testing.T) {
	tb := newTestbed(t)
	oven := NewSmartOven("oven1", packet.MustParseIPv4("10.0.0.63"))
	tb.add(t, oven.Device)
	tb.net.Start()

	if resp, _ := tb.client.Call(oven.IP(), Request{Cmd: "ON"}); resp.OK {
		t.Fatal("oven accepted unauthenticated ON")
	}
	resp, err := tb.client.Call(oven.IP(), Request{Cmd: "ON", User: "chef", Pass: "chef"})
	if err != nil || !resp.OK {
		t.Fatalf("oven on: %v %+v", err, resp)
	}
	if tb.env.Get("oven_heat_rate") != 0.02 {
		t.Errorf("heat rate = %v", tb.env.Get("oven_heat_rate"))
	}
	before := tb.env.Get(envsim.VarTemperature)
	tb.env.Run(120)
	if after := tb.env.Get(envsim.VarTemperature); after <= before {
		t.Errorf("oven did not heat the room: %.2f -> %.2f", before, after)
	}
	if resp, _ := tb.client.Call(oven.IP(), Request{Cmd: "OFF", User: "chef", Pass: "chef"}); !resp.OK {
		t.Fatalf("oven off: %+v", resp)
	}
	if tb.env.Get("oven_power") != 0 {
		t.Error("oven power still drawn")
	}
}

// newProbeHost attaches a host that signals on UDP/7 probes.
func newProbeHost(t *testing.T, tb *testbed, ip packet.IPv4Address, ch chan struct{}) *Client {
	t.Helper()
	st := NewClientStack(t, tb, ip)
	if err := st.Stack.HandleUDP(7, func(packet.IPv4Address, uint16, []byte) {
		select {
		case ch <- struct{}{}:
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}
	return st
}

// NewClientStack attaches an extra plain host to the testbed.
func NewClientStack(t *testing.T, tb *testbed, ip packet.IPv4Address) *Client {
	t.Helper()
	st := netsim.NewStack("host-"+ip.String(), MACFor(ip), ip)
	tb.sw.Attach(tb.net, st.Attach(tb.net), st.MAC())
	t.Cleanup(st.Stop)
	return &Client{Stack: st}
}

func TestCCTVFirmwareHelper(t *testing.T) {
	c := NewCCTV("c", packet.MustParseIPv4("10.0.0.70"), "KEY")
	// No credentials: the firmware download is public on this SKU.
	resp := c.dispatch(packet.MustParseIPv4("10.0.0.66"), Request{Cmd: "FIRMWARE"}.Encode())
	if !resp.OK || !strings.Contains(resp.Data, "rsa_private=KEY") {
		t.Errorf("firmware = %+v", resp)
	}
	c.Stop()
}

func TestStateStringDeterministic(t *testing.T) {
	d := New("x", Profile{SKU: "s"}, MACFor(packet.MustParseIPv4("10.0.0.71")), packet.MustParseIPv4("10.0.0.71"))
	d.Set("b", "2")
	d.Set("a", "1")
	d.Set("c", "3")
	if got := d.StateString(); got != "a=1,b=2,c=3" {
		t.Errorf("state string = %q", got)
	}
	d.Stop()
}
