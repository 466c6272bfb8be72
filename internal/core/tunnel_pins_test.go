package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
	"iotsec/internal/profile"
)

// entriesInClass counts the uplink switch's flow entries whose cookie
// carries the class tag.
func entriesInClass(p *Platform, tag uint8) int {
	n := 0
	for _, e := range p.Switch.Table().Entries() {
		if uint8(e.Cookie>>48) == tag {
			n++
		}
	}
	return n
}

// mboxFrames is every frame the device's µmbox has been handed and
// ruled on, either way.
func mboxFrames(m *Managed) uint64 {
	fwd, dropped := m.Instance.Mbox.Counters()
	return fwd + dropped
}

// TestTunnelPinsIsolateDevices is the forwarding model on a started
// platform: four cameras and a client, each attachment pinned to its
// switch port. A request to one camera is shown to that camera's µmbox
// and no other; ARP still resolves through the broadcast entry; a frame
// for a MAC nothing attached reaches no port and is counted; and a
// quarantine comes and goes above the pins without touching them.
func TestTunnelPinsIsolateDevices(t *testing.T) {
	const quarantineClass = 0x51 // controller.Steering's 'Q'
	d := policy.NewDomain()
	f := policy.NewFSM(d)
	var names []string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("cam%c", 'A'+i)
		names = append(names, name)
		d.AddDevice(name, policy.ContextNormal, policy.ContextSuspicious)
		f.AddRule(policy.Rule{
			Name:       "isolate-" + name,
			Conditions: []policy.Condition{policy.DeviceIs(name, policy.ContextSuspicious)},
			Device:     name,
			Posture:    policy.Posture{Isolate: true},
			Priority:   100,
		})
	}
	p, err := New(Options{Policy: f})
	if err != nil {
		t.Fatal(err)
	}
	var cams []*Managed
	for i, name := range names {
		m, err := p.AddDevice(device.NewCamera(name, packet.IPv4Address{10, 0, 5, byte(10 + i)}).Device)
		if err != nil {
			t.Fatal(err)
		}
		cams = append(cams, m)
	}
	client := newClient(t, p, "10.0.5.200")
	p.Start()
	t.Cleanup(p.Stop)
	sb, err := p.AttachSouthbound(SouthboundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sb.Close)
	if !sb.Steering.WaitForSwitch(3 * time.Second) {
		t.Fatal("switch never completed the southbound handshake")
	}
	quiesce := func() {
		t.Helper()
		if !p.Network.Quiesce(2 * time.Second) {
			t.Fatal("fabric never went idle")
		}
	}
	// One pin per attachment (4 µmbox north legs + the client) and the
	// broadcast entry; nothing else forwards.
	const pins = 4 + 1 + 1
	if got := entriesInClass(p, netsim.PinCookieTag); got != pins || p.Switch.Table().Len() != pins {
		t.Fatalf("%d tunnel entries of %d in the table, want %d of %d", got, p.Switch.Table().Len(), pins, pins)
	}

	camA := cams[0]
	status := device.Request{Cmd: "STATUS", User: "admin", Pass: "admin"}
	call := func() error {
		resp, err := client.Call(camA.Device.IP(), status)
		if err == nil && !resp.OK {
			err = fmt.Errorf("refused: %s", resp.Data)
		}
		return err
	}
	// The first request resolves ARP through the broadcast entry (which
	// every µmbox sees, as every host on a LAN sees an ARP request).
	if err := call(); err != nil {
		t.Fatalf("request to camA: %v", err)
	}
	if mac, ok := client.Stack.LookupARP(camA.Device.IP()); !ok || mac != camA.Device.MAC() {
		t.Fatalf("client's ARP entry for camA = %s, %v", mac, ok)
	}
	quiesce()

	// From here on the exchange is unicast: the other three µmboxes see
	// none of it.
	var before [4]uint64
	for i, m := range cams {
		before[i] = mboxFrames(m)
	}
	for i := 0; i < 5; i++ {
		if err := call(); err != nil {
			t.Fatalf("request %d to camA: %v", i, err)
		}
	}
	quiesce()
	if got := mboxFrames(camA) - before[0]; got == 0 {
		t.Fatal("camA's µmbox saw none of its own device's traffic")
	}
	for i, m := range cams[1:] {
		if got := mboxFrames(m) - before[i+1]; got != 0 {
			t.Errorf("%s's µmbox was shown %d frames of camA's requests, want 0", m.Device.Name, got)
		}
	}

	// A frame for a MAC nothing attached: no port, one counted drop.
	_, outBefore, missBefore, _ := p.Switch.Stats()
	stray := tcpSegment(t, client.Stack.MAC(), packet.MACAddress{2, 0xde, 0xad, 0, 0, 1},
		client.Stack.IP(), packet.IPv4Address{10, 0, 5, 99}, "anyone there?")
	client.Stack.InjectFrame(stray)
	quiesce()
	_, out, miss, _ := p.Switch.Stats()
	if out != outBefore {
		t.Errorf("a frame for an unattached MAC left the switch on %d port(s), want none", out-outBefore)
	}
	if miss-missBefore != 1 {
		t.Errorf("table misses moved by %d, want 1", miss-missBefore)
	}

	// Quarantine camA: its rules sit above the pins, and while they
	// stand nothing addressed to it is delivered anywhere.
	p.Global.View.SetDeviceContext(context.Background(), camA.Device.Name, policy.ContextSuspicious, "test")
	waitFor(t, "quarantine rules on the switch", func() bool { return entriesInClass(p, quarantineClass) == 2 })
	quiesce()
	held := mboxFrames(camA)
	_, outBefore, _, _ = p.Switch.Stats()
	probe := tcpSegment(t, client.Stack.MAC(), camA.Device.MAC(), client.Stack.IP(), camA.Device.IP(), "leak probe")
	for i := 0; i < 4; i++ {
		client.Stack.InjectFrame(probe)
	}
	quiesce()
	if _, out, _, _ := p.Switch.Stats(); out != outBefore || mboxFrames(camA) != held {
		t.Errorf("quarantined camA: %d frames left the switch, %d reached its µmbox, want 0 and 0",
			out-outBefore, mboxFrames(camA)-held)
	}
	if got := entriesInClass(p, netsim.PinCookieTag); got != pins {
		t.Errorf("%d tunnel entries under quarantine, want %d", got, pins)
	}

	// Release removes the quarantine class and only that.
	p.Global.View.SetDeviceContext(context.Background(), camA.Device.Name, policy.ContextNormal, "test")
	waitFor(t, "quarantine rules gone", func() bool { return entriesInClass(p, quarantineClass) == 0 })
	if got := entriesInClass(p, netsim.PinCookieTag); got != pins || p.Switch.Table().Len() != pins {
		t.Errorf("after release: %d tunnel entries of %d in the table, want %d of %d", got, p.Switch.Table().Len(), pins, pins)
	}
	if entriesInClass(p, profile.CookieTag) != 0 {
		t.Error("profile-class entries on a platform that enforces no profile")
	}
	if err := call(); err != nil {
		t.Fatalf("request to camA after release: %v", err)
	}
}

// TestTunnelPinsDeviceToDevice: a call from one managed device to
// another crosses both tunnels — out through the caller's µmbox and in
// through the callee's — and a third device's µmbox sees none of the
// unicast exchange.
func TestTunnelPinsDeviceToDevice(t *testing.T) {
	d := policy.NewDomain()
	p, err := New(Options{Policy: policy.NewFSM(d)})
	if err != nil {
		t.Fatal(err)
	}
	var ms []*Managed
	for i, name := range []string{"d1", "d2", "d3"} {
		d.AddDevice(name, policy.ContextNormal)
		ip := packet.IPv4Address{10, 0, 6, byte(11 + i)}
		// Open access, so the call needs no credentials.
		dev := device.New(name, device.Profile{SKU: "plain-" + name, Class: "test",
			Vulns: []device.Vulnerability{{Class: device.VulnOpenAccess}}}, device.MACFor(ip), ip)
		m, err := p.AddDevice(dev)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	p.Start()
	t.Cleanup(p.Stop)
	d1, d2, d3 := ms[0], ms[1], ms[2]
	client := &device.Client{Stack: d1.Device.Stack(), Timeout: 2 * time.Second}
	call := func() {
		t.Helper()
		resp, err := client.Call(d2.Device.IP(), device.Request{Cmd: "STATUS"})
		if err != nil || !resp.OK {
			t.Fatalf("d1 → d2 call failed: %v %+v", err, resp)
		}
	}
	call() // resolves ARP through the broadcast entry
	if !p.Network.Quiesce(2 * time.Second) {
		t.Fatal("fabric never went idle")
	}
	fwd := func(m *Managed) uint64 { f, _ := m.Instance.Mbox.Counters(); return f }
	b1, b2, b3 := fwd(d1), fwd(d2), mboxFrames(d3)
	call()
	if !p.Network.Quiesce(2 * time.Second) {
		t.Fatal("fabric never went idle")
	}
	if fwd(d1) == b1 {
		t.Error("d1's µmbox forwarded none of its own device's call")
	}
	if fwd(d2) == b2 {
		t.Error("d2's µmbox forwarded none of the call to its device")
	}
	if got := mboxFrames(d3) - b3; got != 0 {
		t.Errorf("d3's µmbox was shown %d frames of the d1 → d2 call, want 0", got)
	}
}

// tcpSegment serialises one TCP data segment to the management port.
func tcpSegment(t *testing.T, srcMAC, dstMAC packet.MACAddress, srcIP, dstIP packet.IPv4Address, payload string) netsim.Frame {
	t.Helper()
	tcp := &packet.TCP{SrcPort: 40000, DstPort: device.MgmtPort, Seq: 1, Flags: packet.TCPPsh | packet.TCPAck}
	tcp.SetNetworkForChecksum(srcIP, dstIP)
	b := packet.NewSerializeBuffer()
	if err := packet.SerializeLayers(b,
		&packet.Ethernet{SrcMAC: srcMAC, DstMAC: dstMAC, EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{SrcIP: srcIP, DstIP: dstIP, Protocol: packet.IPProtocolTCP},
		tcp,
		packet.NewPayload([]byte(payload)),
	); err != nil {
		t.Fatal(err)
	}
	return append(netsim.Frame(nil), b.Bytes()...)
}
