package attack

import (
	"testing"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
)

// lab wires devices and an attacker onto one switch.
type lab struct {
	net      *netsim.Network
	sw       *netsim.Switch
	attacker *Attacker
	t        *testing.T
}

func newLab(t *testing.T) *lab {
	l := &lab{
		net: netsim.NewNetwork(),
		sw:  netsim.NewSwitch("sw", 1),
		t:   t,
	}
	ip := packet.MustParseIPv4("10.0.0.66")
	st := netsim.NewStack("attacker", device.MACFor(ip), ip)
	l.sw.Attach(l.net, st.Attach(l.net), st.MAC())
	l.attacker = NewAttacker(st)
	t.Cleanup(func() {
		st.Stop()
		l.net.Stop()
	})
	return l
}

func (l *lab) add(d *device.Device) {
	p, err := d.Attach(l.net)
	if err != nil {
		l.t.Fatal(err)
	}
	l.sw.Attach(l.net, p, d.MAC())
	l.t.Cleanup(d.Stop)
}

func TestDefaultCredentialAttack(t *testing.T) {
	l := newLab(t)
	cam := device.NewCamera("cam", packet.MustParseIPv4("10.0.0.10"))
	l.add(cam.Device)
	l.net.Start()

	r := l.attacker.TryDefaultCredentials(cam.IP(), "SNAPSHOT")
	if !r.Success {
		t.Errorf("default-credential attack failed on vulnerable camera: %+v", r)
	}
	// Against a hardened device it fails.
	lock := device.NewSmartLock("lock", packet.MustParseIPv4("10.0.0.11"), "owner", "X9!longrandom")
	l.add(lock.Device)
	r = l.attacker.TryDefaultCredentials(lock.IP(), "UNLOCK")
	if r.Success {
		t.Errorf("default creds worked on hardened lock: %+v", r)
	}
}

func TestOpenAccessAndBackdoorAttacks(t *testing.T) {
	l := newLab(t)
	tl := device.NewTrafficLight("tl", packet.MustParseIPv4("10.0.0.12"))
	plug := device.NewSmartPlug("plug", packet.MustParseIPv4("10.0.0.13"), device.Appliance{Name: "x"})
	l.add(tl.Device)
	l.add(plug.Device)
	l.net.Start()

	if r := l.attacker.TryOpenAccess(tl.IP(), "SET", "green"); !r.Success {
		t.Errorf("open access failed: %+v", r)
	}
	if r := l.attacker.TryBackdoor(plug.IP(), "ON", device.PlugBackdoorToken); !r.Success {
		t.Errorf("backdoor failed: %+v", r)
	}
	if r := l.attacker.TryBackdoor(plug.IP(), "ON", "wrong-token"); r.Success {
		t.Errorf("wrong token succeeded: %+v", r)
	}
}

func TestFirmwareKeyExtractionAndReplay(t *testing.T) {
	l := newLab(t)
	const key = "rsa-SHARED-1"
	c1 := device.NewCCTV("cctv1", packet.MustParseIPv4("10.0.0.20"), key)
	c2 := device.NewCCTV("cctv2", packet.MustParseIPv4("10.0.0.21"), key)
	l.add(c1.Device)
	l.add(c2.Device)
	l.net.Start()

	r, got := l.attacker.ExtractFirmwareKey(c1.IP())
	if !r.Success || got != key {
		t.Fatalf("extraction = %+v key=%q", r, got)
	}
	if r := l.attacker.ReplayKey(c2.IP(), got); !r.Success {
		t.Errorf("replay on sibling failed: %+v", r)
	}
}

func TestPINBruteForce(t *testing.T) {
	l := newLab(t)
	win := device.NewWindowActuator("win", packet.MustParseIPv4("10.0.0.22"))
	l.add(win.Device)
	l.net.Start()

	r := l.attacker.BruteForcePIN(win.IP(), "OPEN", "admin", 50)
	if !r.Success {
		t.Errorf("brute force failed (PIN is %s): %+v", device.WindowPassword, r)
	}
	if win.Get("window") != "open" {
		t.Error("window not opened")
	}
}

func TestDNSAmplificationAttack(t *testing.T) {
	l := newLab(t)
	plug := device.NewSmartPlug("plug", packet.MustParseIPv4("10.0.0.30"), device.Appliance{Name: "x"})
	l.add(plug.Device)
	if err := plug.StartDNSResolver(20); err != nil {
		t.Fatal(err)
	}

	victimIP := packet.MustParseIPv4("10.0.0.99")
	victimStack := netsim.NewStack("victim", device.MACFor(victimIP), victimIP)
	l.sw.Attach(l.net, victimStack.Attach(l.net), victimStack.MAC())
	t.Cleanup(victimStack.Stop)
	victim, err := NewVictim(victimStack, 7777)
	if err != nil {
		t.Fatal(err)
	}
	l.net.Start()

	res, err := AmplifyDNS(l.attacker.Stack, plug.IP(), victimIP, 7777, 50)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	res.Finalize(victim)
	if res.ReflectedFrames == 0 {
		t.Fatal("no reflected traffic reached the victim")
	}
	if res.Factor < 5 {
		t.Errorf("amplification factor = %.1f, want substantial", res.Factor)
	}
}
