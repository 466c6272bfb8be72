package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/device"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
	"iotsec/internal/resilience"
)

// TestSuperviseControllersRecoversQuarantine proves the platform-level
// wiring: a partitioned platform (one partition per device) puts its
// locals under supervision, a quarantine posture lands in the
// checkpoint via QuarantinedOf, the crashed partition re-homes, and the
// replacement keeps serving the partition's devices.
func TestSuperviseControllersRecoversQuarantine(t *testing.T) {
	names := []string{"sa0", "sa1", "sb0", "sb1"}
	d := policy.NewDomain()
	f := policy.NewFSM(d)
	for _, name := range names {
		d.AddDevice(name, policy.ContextNormal, policy.ContextSuspicious)
		f.AddRule(policy.Rule{
			Name:       "quar-" + name,
			Conditions: []policy.Condition{policy.DeviceIs(name, policy.ContextSuspicious)},
			Device:     name,
			Posture:    policy.Posture{Isolate: true},
			Priority:   9,
		})
	}
	p, err := New(Options{Policy: f})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		stb := device.NewSetTopBox(name, packet.MustParseIPv4("10.0.9."+string(rune('1'+i))))
		if _, err := p.AddDevice(stb.Device); err != nil {
			t.Fatal(err)
		}
	}
	p.Start()
	defer p.Stop()

	clock := resilience.NewFakeClock(time.Unix(1_700_000_000, 0))
	var mu sync.Mutex
	failovers := 0
	var rec controller.FailoverRecord
	opts := SupervisionOptions{
		Heartbeat:       100 * time.Millisecond,
		Misses:          2,
		CheckpointEvery: -1,
		Clock:           clock,
		OnFailover: func(r controller.FailoverRecord) {
			mu.Lock()
			failovers++
			rec = r
			mu.Unlock()
		},
	}
	h, sup := p.SuperviseControllers(opts)
	if h.Locals() != len(names) {
		t.Fatalf("locals = %d, want %d", h.Locals(), len(names))
	}
	if h2, sup2 := p.SuperviseControllers(opts); h2 != h || sup2 != sup {
		t.Fatal("SuperviseControllers is not idempotent")
	}

	// Quarantine sa0 through the normal platform event path. Its posture
	// carries partition-local version 1, which must not be timed against
	// the unrelated commit the global view made under the same number.
	p.Global.View.SetEnv(context.Background(), "unrelated", "x", "test")
	timed := mEnforceSeconds.Count()
	p.ReportDeviceEvent(device.Event{Device: "sa0", Kind: device.EventBackdoorAccess, Detail: "telnet"})
	if got := mEnforceSeconds.Count(); got != timed {
		t.Fatalf("partition-tier posture added %d event→enforcement samples from the global view's commit times", got-timed)
	}
	sup.Checkpoint()
	g := p.partitioning.GroupOf("sa0")
	ck, ok := sup.Checkpoints().Latest(g)
	if !ok {
		t.Fatal("no checkpoint for sa0's partition")
	}
	if len(ck.Quarantined) != 1 || ck.Quarantined[0] != "sa0" {
		t.Fatalf("checkpoint quarantined = %v, want [sa0]", ck.Quarantined)
	}
	if ck.Vars["dev:sa0"] != string(policy.ContextSuspicious) {
		t.Fatalf("checkpoint vars = %v, missing dev:sa0=suspicious", ck.Vars)
	}

	// Crash the partition's controller and let the deadman find it.
	h.LocalFor(g).Kill()
	for i := 0; i < 20; i++ {
		sup.Tick()
		mu.Lock()
		done := failovers
		mu.Unlock()
		if done > 0 {
			break
		}
		clock.Advance(100 * time.Millisecond)
	}
	mu.Lock()
	r := rec
	done := failovers
	mu.Unlock()
	if done != 1 {
		t.Fatalf("failovers = %d, want 1", done)
	}
	if r.QuarantinesRepushed != 1 {
		t.Fatalf("quarantines re-pushed = %d, want 1", r.QuarantinesRepushed)
	}
	if r.Target == "global" || r.Target == "" {
		t.Fatalf("target = %q, want the surviving shard", r.Target)
	}

	// The replacement serves the partition: a fresh event on sa0 is
	// absorbed by a local, not escalated, and the next checkpoint still
	// holds the quarantine.
	local, escalated := h.Metrics()
	p.ReportDeviceEvent(device.Event{Device: "sa0", Kind: device.EventBackdoorAccess, Detail: "telnet"})
	if l, e := h.Metrics(); l != local+1 || e != escalated {
		t.Fatalf("post-recovery event: local %d→%d, escalated %d→%d; want it absorbed locally", local, l, escalated, e)
	}
	sup.Checkpoint()
	ck, ok = sup.Checkpoints().Latest(g)
	if !ok {
		t.Fatal("no post-recovery checkpoint")
	}
	if len(ck.Quarantined) != 1 || ck.Quarantined[0] != "sa0" {
		t.Fatalf("post-recovery checkpoint quarantined = %v, want [sa0]", ck.Quarantined)
	}
}
