package controller

import (
	"context"
	"testing"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
)

// quarantineRules counts priority-400 entries in a switch table.
func quarantineRules(sw *netsim.Switch) int {
	n := 0
	for _, e := range sw.Table().Entries() {
		if e.Priority == 400 {
			n++
		}
	}
	return n
}

// waitQuarantineRules polls until the table carries want priority-400
// entries (programming after a switch connect is asynchronous).
func waitQuarantineRules(t *testing.T, sw *netsim.Switch, want int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if quarantineRules(sw) == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("switch dpid %d has %d quarantine rules, want %d (table len %d)",
				sw.DatapathID(), quarantineRules(sw), want, sw.Table().Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQuarantinePersistsAcrossReprogramAndReconnect is the regression
// test for a quarantine-lifting hole: a switch that connects after
// Isolate used to receive no quarantine rules. Release must then clear
// both switches.
func TestQuarantinePersistsAcrossReprogramAndReconnect(t *testing.T) {
	steering := NewSteering(nil)
	addr, err := steering.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer steering.Close()

	sw := netsim.NewSwitch("edge", 44)
	agent, err := netsim.ConnectAgent(sw, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for len(steering.Endpoint().Switches()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("switch never connected")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx := context.Background()
	mac := device.MACFor(packet.MustParseIPv4("10.0.0.50"))
	steering.Isolate(ctx, "cam", mac)
	if !steering.Isolated("cam") {
		t.Fatal("Isolate did not record the quarantine")
	}
	waitQuarantineRules(t, sw, 2) // Isolate is barrier-fenced, but agent applies async

	// A switch connecting mid-quarantine receives the drop rules even
	// though it never saw the Isolate call.
	late := netsim.NewSwitch("late", 45)
	lateAgent, err := netsim.ConnectAgent(late, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer lateAgent.Stop()
	waitQuarantineRules(t, late, 2)

	// Release lifts the quarantine everywhere and forgets it, so a
	// subsequent reconnect does not resurrect the rules.
	steering.Release(ctx, "cam", mac)
	if steering.Isolated("cam") {
		t.Fatal("Release did not clear the quarantine")
	}
	waitQuarantineRules(t, sw, 0)
	waitQuarantineRules(t, late, 0)
}
