package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/openflow"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
	"iotsec/internal/profile"
)

// TestPlatformNeverPunts pins the premise the switch agent's single
// degradation path rests on: the platform's uplink switch never sends
// a frame to the controller. Every kind of traffic the platform
// carries is driven through a real southbound session — pinned-tunnel
// requests and the ARP that precedes them, a frame for a MAC nothing
// attached, an isolate → leak-probe → release cycle, and a flow an
// enforced profile denies — and after each, no table entry carries a
// controller action. A switch drops every table miss, so that means
// zero punts.
func TestPlatformNeverPunts(t *testing.T) {
	const (
		name            = "npcam"
		quarantineClass = 0x51 // controller.Steering's 'Q'
	)
	d := policy.NewDomain()
	d.AddDevice(name, policy.ContextNormal, policy.ContextSuspicious)
	f := policy.NewFSM(d)
	f.AddRule(policy.Rule{
		Name:       "isolate-" + name,
		Conditions: []policy.Condition{policy.DeviceIs(name, policy.ContextSuspicious)},
		Device:     name,
		Posture:    policy.Posture{Isolate: true},
		Priority:   100,
	})
	p, err := New(Options{Policy: f})
	if err != nil {
		t.Fatal(err)
	}
	plane := p.EnableProfiles(ProfileOptions{Enforce: true})
	cam, err := p.AddDevice(device.NewCamera(name, packet.MustParseIPv4("10.0.9.10")).Device)
	if err != nil {
		t.Fatal(err)
	}
	client := newClient(t, p, "10.0.9.200")
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
	neverPunted := func(stage string) {
		t.Helper()
		quiesce()
		for _, e := range p.Switch.Table().Entries() {
			for _, a := range e.Actions {
				if a.Type == openflow.ActionTypeController {
					t.Errorf("%s: entry prio %d cookie %#x punts to the controller", stage, e.Priority, e.Cookie)
				}
			}
		}
		if n := sb.Agent.BufferedEvents(); n != 0 {
			t.Errorf("%s: %d events waiting in the agent's ring", stage, n)
		}
	}

	// Pinned-tunnel requests; the first resolves ARP through the
	// broadcast entry.
	status := device.Request{Cmd: "STATUS", User: "admin", Pass: "admin"}
	for i := 0; i < 3; i++ {
		resp, err := client.Call(cam.Device.IP(), status)
		if err == nil && !resp.OK {
			err = fmt.Errorf("refused: %s", resp.Data)
		}
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	neverPunted("requests and ARP")

	// A frame for a MAC nothing attached.
	_, _, missesBefore, _ := p.Switch.Stats()
	client.Stack.InjectFrame(tcpSegment(t, client.Stack.MAC(), packet.MACAddress{2, 0xde, 0xad, 0, 0, 2},
		client.Stack.IP(), packet.MustParseIPv4("10.0.9.99"), "anyone there?"))
	neverPunted("unattached MAC")
	if _, _, misses, _ := p.Switch.Stats(); misses == missesBefore {
		t.Fatal("the frame for an unattached MAC was not a counted miss")
	}

	// Isolate, probe, release.
	ctx := context.Background()
	p.Global.View.SetDeviceContext(ctx, name, policy.ContextSuspicious, "test")
	waitFor(t, "quarantine rules", func() bool { return entriesInClass(p, quarantineClass) == 2 })
	probe := tcpSegment(t, client.Stack.MAC(), cam.Device.MAC(), client.Stack.IP(), cam.Device.IP(), "leak probe")
	for i := 0; i < 4; i++ {
		client.Stack.InjectFrame(probe)
	}
	neverPunted("isolated")
	p.Global.View.SetDeviceContext(ctx, name, policy.ContextNormal, "test")
	waitFor(t, "quarantine lifted", func() bool { return entriesInClass(p, quarantineClass) == 0 })
	neverPunted("released")

	// Learn one habit, enforce it, then step outside it.
	got := udpSink(t, client.Stack, 9000, "checkin")
	plane.StartLearning()
	if err := cam.Device.Stack().SendUDP(client.Stack.IP(), 9000, 33000, []byte("checkin")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "training traffic", func() bool { return got.Load() >= 1 })
	if profs := plane.FinishLearning(ctx); len(profs) != 1 {
		t.Fatalf("distilled %d profiles, want 1", len(profs))
	}
	waitFor(t, "deny floor", func() bool { return prioCount(p, profile.PriorityDeny) >= 2 })
	if err := cam.Device.Stack().SendUDP(client.Stack.IP(), 4444, 7000, []byte("exfil")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "violation quarantined", func() bool { return sb.Steering.Isolated(name) })
	neverPunted("profile-denied flow")
}
