package core

import (
	"testing"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/learn"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
	"iotsec/internal/sigrepo"
)

// wemoIDSPolicy is the Wemo-behind-an-IDS posture both deployments
// run.
func wemoIDSPolicy() *policy.FSM {
	d := policy.NewDomain()
	d.AddDevice("wemo", policy.ContextNormal, policy.ContextSuspicious, policy.ContextCompromised)
	f := policy.NewFSM(d)
	f.AddRule(policy.Rule{
		Name:     "wemo-ids",
		Device:   "wemo",
		Posture:  policy.Posture{Modules: []policy.ModuleSpec{{Kind: "ids"}}},
		Priority: 1,
	})
	return f
}

// deployWemoHome builds one smart home with a Wemo, an owner host and
// an attacker host.
func deployWemoHome(t *testing.T) (p *Platform, plug *device.SmartPlug, owner, attacker *device.Client) {
	t.Helper()
	var err error
	p, err = New(Options{Policy: wemoIDSPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	plug = device.NewSmartPlug("wemo", packet.MustParseIPv4("10.0.0.10"), device.Appliance{Name: "lamp"})
	if _, err := p.AddDevice(plug.Device); err != nil {
		t.Fatal(err)
	}
	mk := func(ip string) *device.Client {
		addr := packet.MustParseIPv4(ip)
		st := netsim.NewStack("host-"+ip, device.MACFor(addr), addr)
		p.AttachHost(st)
		t.Cleanup(st.Stop)
		return &device.Client{Stack: st, Timeout: time.Second}
	}
	owner = mk("10.0.0.2")
	attacker = mk("10.0.0.66")
	p.Start()
	t.Cleanup(p.Stop)
	return p, plug, owner, attacker
}

// distill is the §4.1 post-incident analysis over a fabric capture: the
// attacker's management traffic toward the device is contrasted with
// everyone else's, and the distinguishing token becomes an ids-dialect
// block rule ready to Publish.
func distill(t *testing.T, frames []netsim.CapturedFrame, deviceIP, attackerIP packet.IPv4Address, msg string, sid int) string {
	t.Helper()
	attack := learn.MgmtPayloadsFrom(frames, deviceIP, attackerIP)
	if len(attack) == 0 {
		t.Fatalf("no captured traffic from %s to %s", attackerIP, deviceIP)
	}
	rule, err := learn.GenerateRule(attack, learn.MgmtPayloadsExcluding(frames, deviceIP, attackerIP), msg, sid)
	if err != nil {
		t.Fatalf("distill: %v", err)
	}
	return rule
}

// TestDistillPublishProtectFleet is the full §4.1 story on live
// systems: deployment A is exploited, distills a signature from its
// own capture, publishes it; the community confirms; deployment B —
// same SKU, never attacked before — blocks the exploit on first
// contact.
func TestDistillPublishProtectFleet(t *testing.T) {
	repo := sigrepo.NewRepository("salt")
	srv := sigrepo.NewServer(repo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// --- Deployment A: the first victim (capture on) ---
	pA, plugA, ownerA, attackerA := deployWemoHome(t)
	rec := netsim.NewRecorder()
	pA.Network.AddTap(rec.Tap())
	for i := 0; i < 4; i++ {
		if _, err := ownerA.Call(plugA.IP(), device.Request{Cmd: "STATUS", User: "owner", Pass: "wemo123"}); err != nil {
			t.Fatal(err)
		}
		if _, err := attackerA.Call(plugA.IP(), device.Request{Cmd: "ON", Args: []string{device.PlugBackdoorToken}}); err != nil {
			t.Fatalf("attack %d should succeed pre-signature: %v", i, err)
		}
	}
	// Post-incident: distill and publish.
	rule := distill(t, rec.Frames(), plugA.IP(), packet.MustParseIPv4("10.0.0.66"), "auto: wemo backdoor", 9300)
	linkA, err := pA.ConnectSigrepo(addr, "home-a", sigrepo.ManagedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer linkA.Close()
	sig, err := linkA.Publish(plugA.Profile.SKU, rule, "distilled from capture")
	if err != nil {
		t.Fatalf("publish %q: %v", rule, err)
	}

	// --- Deployment B subscribes before the signature clears ---
	pB, plugB, ownerB, attackerB := deployWemoHome(t)
	linkB, err := pB.ConnectSigrepo(addr, "home-b", sigrepo.ManagedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer linkB.Close()

	// Community confirms (three votes clear quarantine).
	for _, org := range []string{"org-1", "org-2", "org-3"} {
		voter, err := sigrepo.DialClient(addr, org)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := voter.Vote(sig.ID, true); err != nil {
			t.Fatal(err)
		}
		voter.Close()
	}

	// Deployment B now blocks the first-ever attack it sees, while
	// the owner's app keeps working.
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, err := attackerB.Call(plugB.IP(), device.Request{Cmd: "ON", Args: []string{device.PlugBackdoorToken}})
		if err != nil {
			break // blocked
		}
		if time.Now().After(deadline) {
			t.Fatal("deployment B never picked up the distilled signature")
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, err := ownerB.Call(plugB.IP(), device.Request{Cmd: "STATUS", User: "owner", Pass: "wemo123"})
	if err != nil || !resp.OK {
		t.Fatalf("owner collateral damage: %v %+v", err, resp)
	}
}
