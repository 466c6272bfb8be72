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
// wiring: a partitioned platform puts its locals under supervision, a
// quarantine posture lands in the checkpoint via QuarantinedOf, the
// crashed partition re-homes, and the replacement keeps serving the
// partition's devices.
func TestSuperviseControllersRecoversQuarantine(t *testing.T) {
	names := []string{"sa0", "sa1", "sb0", "sb1"}
	d := policy.NewDomain()
	f := policy.NewFSM(d)
	for _, name := range names {
		d.AddDevice(name, policy.ContextNormal, policy.ContextSuspicious)
		d.AddEnvVar(name+"_attr", "a", "q")
		f.AddRule(policy.Rule{
			Name:       "quar-" + name,
			Conditions: []policy.Condition{policy.EnvIs(name+"_attr", "q")},
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
	envLocality := map[string]int{}
	var mu sync.Mutex
	failovers := 0
	var rec controller.FailoverRecord
	opts := SupervisionOptions{
		Edges: []controller.InteractionEdge{
			{A: "sa0", B: "sa1", Weight: 10},
			{A: "sb0", B: "sb1", Weight: 10},
		},
		MaxGroupSize:    2,
		EnvLocality:     envLocality,
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
	// Env locality must reference the groups the platform will compute;
	// pre-compute the same partitioning to fill it.
	part := controller.Partition(names, opts.Edges, opts.MaxGroupSize)
	for _, name := range names {
		envLocality[name+"_attr"] = part.GroupOf(name)
	}
	opts.Partitioning = part

	h, sup := p.SuperviseControllers(opts)
	if h.Locals() != 2 {
		t.Fatalf("locals = %d, want 2", h.Locals())
	}
	if h2, sup2 := p.SuperviseControllers(opts); h2 != h || sup2 != sup {
		t.Fatal("SuperviseControllers is not idempotent")
	}

	// Quarantine sa0 through the normal platform event path. Its posture
	// carries partition-local version 1, which must not be timed against
	// the unrelated commit the global view made under the same number.
	p.Global.View.SetEnv(context.Background(), "unrelated", "x", "test")
	timed := mEnforceSeconds.Count()
	p.ReportDeviceEvent(device.Event{Device: "sa0", Kind: device.EventStateChange, Detail: "attr=q"})
	if got := mEnforceSeconds.Count(); got != timed {
		t.Fatalf("partition-tier posture added %d event→enforcement samples from the global view's commit times", got-timed)
	}
	sup.Checkpoint()
	g := part.GroupOf("sa0")
	ck, ok := sup.Checkpoints().Latest(g)
	if !ok {
		t.Fatal("no checkpoint for sa0's partition")
	}
	if len(ck.Quarantined) != 1 || ck.Quarantined[0] != "sa0" {
		t.Fatalf("checkpoint quarantined = %v, want [sa0]", ck.Quarantined)
	}
	if ck.Vars["env:sa0_attr"] != "q" {
		t.Fatalf("checkpoint vars = %v, missing sa0_attr=q", ck.Vars)
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
	if _, ok := p.Supervision(); ok == nil {
		t.Fatal("Supervision() lost the supervisor")
	}

	// The replacement serves the partition: releasing the quarantine
	// through the platform path clears it from the next checkpoint.
	p.ReportDeviceEvent(device.Event{Device: "sa0", Kind: device.EventStateChange, Detail: "attr=a"})
	sup.Checkpoint()
	ck, ok = sup.Checkpoints().Latest(g)
	if !ok {
		t.Fatal("no post-recovery checkpoint")
	}
	if len(ck.Quarantined) != 0 {
		t.Fatalf("post-release checkpoint quarantined = %v, want empty", ck.Quarantined)
	}
}
