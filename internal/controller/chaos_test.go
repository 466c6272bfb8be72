package controller

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/journal"
	"iotsec/internal/netsim"
	"iotsec/internal/openflow"
	"iotsec/internal/packet"
	"iotsec/internal/resilience"
	"iotsec/internal/telemetry"
)

// dumpJournalOnFailure exports the forensic journal as NDJSON to
// $IOTSEC_CHAOS_JOURNAL when the test fails, so CI can upload the
// disconnect→reconnect→replay timeline as an artifact.
func dumpJournalOnFailure(t *testing.T) {
	path := os.Getenv("IOTSEC_CHAOS_JOURNAL")
	if path == "" {
		return
	}
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Logf("chaos journal dump: %v", err)
			return
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		for _, e := range journal.Default.Snapshot(journal.Filter{}) {
			_ = enc.Encode(e)
		}
		t.Logf("chaos journal dumped to %s", path)
	})
	dumpMetricsOnFailure(t)
}

// dumpMetricsOnFailure scrapes the process registry in Prometheus
// text format to $IOTSEC_CHAOS_METRICS when the test fails, pairing
// the forensic timeline artifact with the metric state (session
// counts, flow-mod totals, MTTR histograms) at the moment of failure.
func dumpMetricsOnFailure(t *testing.T) {
	path := os.Getenv("IOTSEC_CHAOS_METRICS")
	if path == "" {
		return
	}
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Logf("chaos metrics dump: %v", err)
			return
		}
		defer f.Close()
		fmt.Fprintf(f, "# chaos metrics snapshot: %s\n", t.Name())
		if err := telemetry.Default.WritePrometheus(f); err != nil {
			t.Logf("chaos metrics dump: %v", err)
			return
		}
		t.Logf("chaos metrics dumped to %s", path)
	})
}

// waitChaosGoroutines polls until the goroutine count returns to
// (roughly) the baseline, catching leaked supervisors/heartbeats.
func waitChaosGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d now, %d at baseline", runtime.NumGoroutine(), base)
}

// flakyDialer returns an AgentOptions.Dial that wraps every transport
// in the shared fault plan.
func flakyDialer(plan *resilience.FaultPlan) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return nil, err
		}
		return resilience.WrapConn(c, plan), nil
	}
}

// TestChaosControllerRestart is the fault-injection scenario the
// resilience work exists for: two switches hold a quarantine, the
// controller endpoint is killed mid-scenario and restarted on the same
// address, and the system must reconverge — quarantine drop rules
// present on every switch DURING the outage (fail-static serves the
// installed table) and AFTER it (reconnect re-push), even when one
// switch loses its whole table while disconnected, and even under
// probabilistic connection kills. No goroutines may leak.
func TestChaosControllerRestart(t *testing.T) {
	dumpJournalOnFailure(t)
	base := runtime.NumGoroutine()

	steering := NewSteering(nil)
	steering.SetHeartbeat(50*time.Millisecond, 2)
	addr, err := steering.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	plan := resilience.NewFaultPlan(101)
	plan.SetLatency(time.Millisecond, time.Millisecond)
	backoff := resilience.BackoffOptions{Base: 5 * time.Millisecond, Cap: 25 * time.Millisecond, Seed: 9}

	sw1 := netsim.NewSwitch("edge1", 61)
	sw2 := netsim.NewSwitch("edge2", 62)
	a1 := netsim.SuperviseAgent(sw1, addr, netsim.AgentOptions{Backoff: backoff, Dial: flakyDialer(plan)})
	a2 := netsim.SuperviseAgent(sw2, addr, netsim.AgentOptions{Backoff: backoff, Dial: flakyDialer(plan)})

	waitSwitches := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for len(steering.Endpoint().Switches()) != want {
			if time.Now().After(deadline) {
				t.Fatalf("connected switches = %v, want %d", steering.Endpoint().Switches(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitSwitches(2)

	// Quarantine a device: priority-400 drop rules on every switch.
	ctx := context.Background()
	mac := device.MACFor(packet.MustParseIPv4("10.0.0.66"))
	steering.Isolate(ctx, "cam", mac)
	waitQuarantineRules(t, sw1, 2)
	waitQuarantineRules(t, sw2, 2)

	// --- Controller crash ---
	steering.Interrupt()
	deadline := time.Now().Add(5 * time.Second)
	for a1.Connected() || a2.Connected() {
		if time.Now().After(deadline) {
			t.Fatal("agents did not observe the controller crash")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// DURING the outage the enforcement must hold: fail-static keeps
	// serving the installed table, so the drop rules are still there.
	if got := quarantineRules(sw1); got != 2 {
		t.Fatalf("sw1 quarantine rules during outage = %d, want 2 (fail-static must keep enforcing)", got)
	}
	if got := quarantineRules(sw2); got != 2 {
		t.Fatalf("sw2 quarantine rules during outage = %d, want 2", got)
	}

	// Worst case: sw2 loses its entire table while disconnected (power
	// cycle). Reconnect must restore the quarantine from controller
	// state.
	sw2.Table().Delete(openflow.MatchAll())
	if got := quarantineRules(sw2); got != 0 {
		t.Fatalf("table wipe left %d rules", got)
	}

	// --- Controller restart on the same address ---
	if _, err := steering.Listen(addr); err != nil {
		t.Fatalf("re-listen after interrupt: %v", err)
	}
	waitSwitches(2)
	waitQuarantineRules(t, sw1, 2)
	waitQuarantineRules(t, sw2, 2) // restored from steering.isolated
	if !steering.Isolated("cam") {
		t.Fatal("quarantine record lost across the restart")
	}

	// --- Probabilistic kill burst: sessions die at random; the
	// supervisors must keep reconverging. ---
	reconBefore := a1.Reconnects() + a2.Reconnects()
	plan.SetKillRate(0.25)
	deadline = time.Now().Add(10 * time.Second)
	for a1.Reconnects()+a2.Reconnects() < reconBefore+2 {
		if time.Now().After(deadline) {
			t.Fatal("kill burst produced no reconnects")
		}
		time.Sleep(5 * time.Millisecond)
	}
	plan.SetKillRate(0)
	// After the storm, the world reconverges: both switches connected
	// and still enforcing the quarantine.
	waitSwitches(2)
	waitQuarantineRules(t, sw1, 2)
	waitQuarantineRules(t, sw2, 2)

	// Release propagates once the fabric is healthy again.
	steering.Release(ctx, "cam", mac)
	waitQuarantineRules(t, sw1, 0)
	waitQuarantineRules(t, sw2, 0)

	// --- Teardown: nothing may leak. ---
	a1.Stop()
	a2.Stop()
	a1.Wait()
	a2.Wait()
	if err := steering.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitChaosGoroutines(t, base)
}

// TestSteeringSurvivesAgentGivingUp pins the MaxElapsed budget path: a
// supervisor whose outage outlives its budget stops cleanly instead of
// spinning forever.
func TestSteeringSurvivesAgentGivingUp(t *testing.T) {
	sw := netsim.NewSwitch("edge", 63)
	agent := netsim.SuperviseAgent(sw, "127.0.0.1:1", netsim.AgentOptions{
		Backoff: resilience.BackoffOptions{
			Base: time.Millisecond, Cap: 5 * time.Millisecond,
			MaxElapsed: 30 * time.Millisecond, Seed: 3,
		},
	})
	done := make(chan struct{})
	go func() { agent.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("agent did not give up after its reconnect budget")
	}
	if agent.Connected() {
		t.Fatal("agent claims connected after giving up")
	}
}
