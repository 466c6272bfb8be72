package core

import (
	"testing"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
	"iotsec/internal/sigrepo"
)

// TestCrowdsourcedSignatureEndToEnd closes the full §4.1 loop: a
// remote deployment publishes a backdoor signature, the community
// clears it by voting, and THIS platform's running IDS µmbox starts
// blocking the attack — no local configuration at all.
func TestCrowdsourcedSignatureEndToEnd(t *testing.T) {
	// The community repository.
	repo := sigrepo.NewRepository("salt")
	srv := sigrepo.NewServer(repo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Our deployment: a Wemo behind an IDS posture with no rules yet.
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

	link, err := p.ConnectSigrepo(addr, "our-home", sigrepo.ManagedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	// Pre-signature: the backdoor works (transport-wise).
	attackerIP := packet.MustParseIPv4("10.0.0.66")
	attackerStack := netsim.NewStack("attacker", device.MACFor(attackerIP), attackerIP)
	p.AttachHost(attackerStack)
	t.Cleanup(attackerStack.Stop)
	client := &device.Client{Stack: attackerStack, Timeout: time.Second}
	if _, err := client.Call(plug.IP(), device.Request{Cmd: "OFF", Args: []string{device.PlugBackdoorToken}}); err != nil {
		t.Fatalf("pre-signature backdoor call failed at transport: %v", err)
	}

	// A remote victim publishes; three deployments confirm.
	victim, err := sigrepo.DialClient(addr, "first-victim")
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	sig, err := victim.Publish(plug.Profile.SKU,
		`block tcp any any -> any 80 (msg:"wemo backdoor token"; content:"`+device.PlugBackdoorToken+`"; sid:9001;)`,
		"post-incident analysis")
	if err != nil {
		t.Fatal(err)
	}
	for i, org := range []string{"org-1", "org-2", "org-3"} {
		voter, err := sigrepo.DialClient(addr, org)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := voter.Vote(sig.ID, true); err != nil {
			t.Fatalf("vote %d: %v", i, err)
		}
		voter.Close()
	}

	// The signature propagates and the SAME attack now dies at our
	// µmbox.
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, err := client.Call(plug.IP(), device.Request{Cmd: "OFF", Args: []string{device.PlugBackdoorToken}})
		if err != nil {
			break // blocked: signature live
		}
		if time.Now().After(deadline) {
			t.Fatal("community signature never took effect locally")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// And the context escalated off the block alert.
	if !p.WaitForContext("wemo", policy.ContextCompromised, 2*time.Second) {
		t.Error("block alert did not escalate the device context")
	}
}
