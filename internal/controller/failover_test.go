package controller

import (
	"context"
	"fmt"
	"regexp"
	"sync"
	"testing"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/ids"
	"iotsec/internal/journal"
	"iotsec/internal/policy"
	"iotsec/internal/resilience"
)

// failoverFixture is a three-partition hierarchy with one fully local
// rule pair (attr=b → Block, attr=q → Isolate) per device, plus the
// enforcement-side state the supervisor hooks read.
type failoverFixture struct {
	h    *Hierarchy
	part *Partitioning

	mu       sync.Mutex
	postures map[string]policy.Posture
	// installed models switch-resident quarantine drops (readback leg).
	installed map[string]bool
	// ops records the enforcement call order for fail-closed checks.
	ops []string
}

var failoverDevs = []string{"fva0", "fva1", "fvb0", "fvb1", "fvc0", "fvc1"}

// newFailoverFixture builds the fixture; extra rules join the policy
// before the hierarchy classifies it.
func newFailoverFixture(t *testing.T, extra ...policy.Rule) *failoverFixture {
	t.Helper()
	fx := &failoverFixture{
		postures:  map[string]policy.Posture{},
		installed: map[string]bool{},
	}
	d := policy.NewDomain()
	f := policy.NewFSM(d)
	for _, dev := range failoverDevs {
		d.AddDevice(dev, policy.ContextNormal, policy.ContextSuspicious)
		d.AddEnvVar(dev+"_attr", "a", "b", "q")
		f.AddRule(policy.Rule{
			Name:       "block-" + dev,
			Conditions: []policy.Condition{policy.EnvIs(dev+"_attr", "b")},
			Device:     dev,
			Posture:    policy.Posture{BlockCommands: []string{"ON"}},
			Priority:   5,
		})
		f.AddRule(policy.Rule{
			Name:       "quar-" + dev,
			Conditions: []policy.Condition{policy.EnvIs(dev+"_attr", "q")},
			Device:     dev,
			Posture:    policy.Posture{Isolate: true},
			Priority:   9,
		})
	}
	for _, r := range extra {
		f.AddRule(r)
	}
	fx.part = Partition(failoverDevs, []InteractionEdge{
		{A: "fva0", B: "fva1", Weight: 10},
		{A: "fvb0", B: "fvb1", Weight: 10},
		{A: "fvc0", B: "fvc1", Weight: 10},
	}, 2)
	envLocality := map[string]int{}
	for _, dev := range failoverDevs {
		envLocality[dev+"_attr"] = fx.part.GroupOf(dev)
	}
	fx.h = NewHierarchy(f, fx.part, envLocality, func(_ context.Context, dev string, p policy.Posture, _ uint64) {
		fx.mu.Lock()
		defer fx.mu.Unlock()
		fx.postures[dev] = p
		fx.ops = append(fx.ops, "sink:"+dev)
		if p.Isolate {
			fx.installed[dev] = true
		} else {
			delete(fx.installed, dev)
		}
	})
	if fx.h.Locals() != 3 {
		t.Fatalf("locals = %d, want 3", fx.h.Locals())
	}
	return fx
}

func (fx *failoverFixture) supervise(clock resilience.Clock, j *journal.Journal, mode FailMode, onFailover func(FailoverRecord)) *Supervisor {
	return fx.h.Supervise(SupervisorOptions{
		Clock:           clock,
		Heartbeat:       100 * time.Millisecond,
		Misses:          2,
		CheckpointEvery: -1,
		FailMode:        mode,
		Journal:         j,
		QuarantinedOf: func(group int) []string {
			fx.mu.Lock()
			defer fx.mu.Unlock()
			var out []string
			for dev, p := range fx.postures {
				if p.Isolate && fx.part.GroupOf(dev) == group {
					out = append(out, dev)
				}
			}
			return out
		},
		ReadbackQuarantines: func(group int) []string {
			fx.mu.Lock()
			defer fx.mu.Unlock()
			var out []string
			for dev := range fx.installed {
				if fx.part.GroupOf(dev) == group {
					out = append(out, dev)
				}
			}
			return out
		},
		RepushQuarantine: func(_ context.Context, dev string) {
			fx.mu.Lock()
			defer fx.mu.Unlock()
			fx.installed[dev] = true
			fx.ops = append(fx.ops, "repush:"+dev)
		},
		OnFailover: onFailover,
	})
}

func (fx *failoverFixture) event(dev, val string) {
	fx.h.HandleDeviceEvent(context.Background(), device.Event{
		Device: dev, Kind: device.EventStateChange, Detail: "attr=" + val,
	})
}

// tickUntilDead advances the fake clock through the deadman schedule.
func tickUntilDead(t *testing.T, clock *resilience.FakeClock, sup *Supervisor, want int, got *int, mu *sync.Mutex) {
	t.Helper()
	for i := 0; i < 20; i++ {
		sup.Tick()
		mu.Lock()
		done := *got
		mu.Unlock()
		if done >= want {
			return
		}
		clock.Advance(100 * time.Millisecond)
	}
	t.Fatalf("no failover after 20 ticks")
}

func TestSupervisorFailoverFailClosedOrdering(t *testing.T) {
	fx := newFailoverFixture(t)
	clock := resilience.NewFakeClock(time.Unix(1_700_000_000, 0))
	j := journal.New(256)

	var mu sync.Mutex
	failovers := 0
	var rec FailoverRecord
	sup := fx.supervise(clock, j, FailModeRehome, func(r FailoverRecord) {
		mu.Lock()
		failovers++
		rec = r
		mu.Unlock()
	})

	g0 := fx.part.GroupOf("fva0")
	// Pre-checkpoint: one quarantine plus a block posture.
	fx.event("fva0", "q")
	fx.event("fva1", "b")
	sup.Checkpoint()
	// Post-checkpoint: a second quarantine that must travel via journal
	// replay + flow-table readback, not the snapshot.
	fx.event("fva1", "q")

	fx.mu.Lock()
	fx.ops = nil // isolate the recovery window's call order
	fx.mu.Unlock()

	fx.h.LocalFor(g0).Kill()
	tickUntilDead(t, clock, sup, 1, &failovers, &mu)

	mu.Lock()
	r := rec
	mu.Unlock()
	if r.Group != g0 {
		t.Fatalf("failed-over group = %d, want %d", r.Group, g0)
	}
	if r.Target == "" || r.Target == "global" {
		t.Fatalf("target = %q, want a surviving shard", r.Target)
	}
	if r.QuarantinesRepushed != 2 {
		t.Fatalf("quarantines re-pushed = %d, want 2 (checkpoint ∪ readback)", r.QuarantinesRepushed)
	}
	if r.VarsRestored == 0 || r.EventsReplayed == 0 {
		t.Fatalf("restore did no work: vars=%d replayed=%d", r.VarsRestored, r.EventsReplayed)
	}

	// Fail-closed ordering: every quarantine re-push happens before any
	// posture the rebuilt controller pushes.
	fx.mu.Lock()
	ops := append([]string(nil), fx.ops...)
	fx.mu.Unlock()
	firstSink := -1
	lastRepush := -1
	for i, op := range ops {
		if firstSink < 0 && len(op) > 5 && op[:5] == "sink:" {
			firstSink = i
		}
		if op == "repush:fva0" || op == "repush:fva1" {
			lastRepush = i
		}
	}
	if lastRepush < 0 {
		t.Fatalf("no quarantine re-push recorded: %v", ops)
	}
	if firstSink >= 0 && firstSink < lastRepush {
		t.Fatalf("posture delivered before quarantine re-push finished: %v", ops)
	}

	// The three recovery events share one trace, in protocol order.
	types := []journal.Type{journal.TypeCtrlFailover, journal.TypeCtrlRehomed, journal.TypeCtrlRecovered}
	events := j.Snapshot(journal.Filter{TraceID: r.TraceID})
	i := 0
	for _, e := range events {
		if i < len(types) && e.Type == types[i] {
			i++
		}
	}
	if i != len(types) {
		t.Fatalf("recovery trace incomplete: got %d/%d protocol events in %v", i, len(types), events)
	}

	// The replacement now owns the partition: a release event lands.
	tgt, ok := fx.h.Rehomed(g0)
	if !ok || tgt.Target != r.Target {
		t.Fatalf("Rehomed(%d) = %+v %v, want target %q", g0, tgt, ok, r.Target)
	}
	fx.event("fva0", "a")
	fx.mu.Lock()
	released := !fx.postures["fva0"].Isolate
	fx.mu.Unlock()
	if !released {
		t.Fatal("replacement controller did not process the release event")
	}
}

func TestSupervisorFailGlobalMode(t *testing.T) {
	fx := newFailoverFixture(t)
	clock := resilience.NewFakeClock(time.Unix(1_700_000_000, 0))
	j := journal.New(256)

	var mu sync.Mutex
	failovers := 0
	sup := fx.supervise(clock, j, FailModeGlobal, func(FailoverRecord) {
		mu.Lock()
		failovers++
		mu.Unlock()
	})

	g0 := fx.part.GroupOf("fva0")
	fx.event("fva0", "q")
	sup.Checkpoint()
	fx.h.LocalFor(g0).Kill()
	tickUntilDead(t, clock, sup, 1, &failovers, &mu)

	tgt, ok := fx.h.Rehomed(g0)
	if !ok || tgt.Target != "global" {
		t.Fatalf("Rehomed = %+v %v, want global", tgt, ok)
	}
	// Degraded mode: the partition's events now pay the global round
	// trip.
	_, beforeEsc := fx.h.Metrics()
	fx.event("fva0", "a")
	_, afterEsc := fx.h.Metrics()
	if afterEsc != beforeEsc+1 {
		t.Fatalf("escalated %d → %d, want +1 (fail-global routes up)", beforeEsc, afterEsc)
	}
	// The restored quarantine state reached the global view: releasing
	// works through it.
	fx.mu.Lock()
	released := !fx.postures["fva0"].Isolate
	fx.mu.Unlock()
	if !released {
		t.Fatal("global controller did not release the quarantine from restored state")
	}
}

// ckptSeqRe normalizes the absolute journal sequence embedded in
// re-homing details: the global journal accumulates across runs, so
// the sequence differs even when the runs are otherwise identical.
var ckptSeqRe = regexp.MustCompile(`seq \d+`)

// runDeterminismScenario drives one complete double-failure scenario
// and returns its observable outcome: re-homing table, failover
// records (trace ids zeroed), and the supervisor's journal as
// (type, device, normalized-detail) tuples.
func runDeterminismScenario(t *testing.T) ([]RehomeTarget, []FailoverRecord, []string) {
	t.Helper()
	fx := newFailoverFixture(t)
	clock := resilience.NewFakeClock(time.Unix(1_700_000_000, 0))
	j := journal.New(256)

	var mu sync.Mutex
	failovers := 0
	sup := fx.supervise(clock, j, FailModeRehome, func(FailoverRecord) {
		mu.Lock()
		failovers++
		mu.Unlock()
	})

	fx.event("fva0", "q")
	fx.event("fvb0", "b")
	fx.event("fvb1", "q")
	sup.Checkpoint()
	fx.event("fva1", "q")
	fx.event("fvb0", "q")

	// Two controllers die in the same heartbeat window; the survivors
	// must absorb both partitions deterministically.
	fx.h.LocalFor(fx.part.GroupOf("fva0")).Kill()
	fx.h.LocalFor(fx.part.GroupOf("fvb0")).Kill()
	tickUntilDead(t, clock, sup, 2, &failovers, &mu)

	recs := sup.History()
	for i := range recs {
		recs[i].TraceID = 0
	}
	var lines []string
	for _, e := range j.Snapshot(journal.Filter{}) {
		lines = append(lines, string(e.Type)+"|"+e.Device+"|"+ckptSeqRe.ReplaceAllString(e.Detail, "seq #"))
	}
	var rehomed []RehomeTarget
	for g := range fx.part.Groups {
		if rt, ok := fx.h.Rehomed(g); ok {
			rehomed = append(rehomed, rt)
		}
	}
	return rehomed, recs, lines
}

// TestRehomingDeterminism: the same partitioning and failure sequence
// under a fake clock must produce identical re-assignments and an
// identical journal event order on every run (run with -count=2 -race
// in CI).
func TestRehomingDeterminism(t *testing.T) {
	tgt1, recs1, j1 := runDeterminismScenario(t)
	tgt2, recs2, j2 := runDeterminismScenario(t)

	if fmt.Sprintf("%+v", tgt1) != fmt.Sprintf("%+v", tgt2) {
		t.Fatalf("re-homing diverged:\n run1: %+v\n run2: %+v", tgt1, tgt2)
	}
	if fmt.Sprintf("%+v", recs1) != fmt.Sprintf("%+v", recs2) {
		t.Fatalf("failover records diverged:\n run1: %+v\n run2: %+v", recs1, recs2)
	}
	if len(j1) != len(j2) {
		t.Fatalf("journal lengths diverged: %d vs %d\n run1: %v\n run2: %v", len(j1), len(j2), j1, j2)
	}
	for i := range j1 {
		if j1[i] != j2[i] {
			t.Fatalf("journal event %d diverged:\n run1: %s\n run2: %s", i, j1[i], j2[i])
		}
	}
	// Both dead partitions must have found (possibly distinct) homes,
	// never the global controller in rehome mode.
	if len(tgt1) != 2 {
		t.Fatalf("rehomed %d partitions, want 2: %+v", len(tgt1), tgt1)
	}
	for _, tgt := range tgt1 {
		if tgt.Target == "global" || tgt.Target == "" {
			t.Fatalf("partition %d landed on %q in rehome mode", tgt.Group, tgt.Target)
		}
	}
}

// TestSupervisorPeriodicCheckpoints: the Tick loop takes snapshots on
// the configured cadence under the fake clock.
func TestSupervisorPeriodicCheckpoints(t *testing.T) {
	fx := newFailoverFixture(t)
	clock := resilience.NewFakeClock(time.Unix(1_700_000_000, 0))
	sup := fx.h.Supervise(SupervisorOptions{
		Clock:           clock,
		Heartbeat:       100 * time.Millisecond,
		CheckpointEvery: 300 * time.Millisecond,
		Journal:         journal.New(64),
	})

	fx.event("fva0", "b")
	for i := 0; i < 4; i++ {
		clock.Advance(100 * time.Millisecond)
		sup.Tick()
	}
	g0 := fx.part.GroupOf("fva0")
	ck, ok := sup.Checkpoints().Latest(g0)
	if !ok {
		t.Fatal("no periodic checkpoint taken")
	}
	if ck.Vars["env:fva0_attr"] != "b" {
		t.Fatalf("checkpoint vars = %v, missing fva0_attr=b", ck.Vars)
	}
	if len(ck.Postures) == 0 {
		t.Fatal("checkpoint captured no postures")
	}

	st := sup.Status()
	if len(st.Partitions) != 3 {
		t.Fatalf("status partitions = %d, want 3", len(st.Partitions))
	}
	for _, cs := range st.Partitions {
		if !cs.Alive {
			t.Fatalf("partition %d reported dead: %+v", cs.Group, cs)
		}
	}
}

// BenchmarkFailoverRecovery measures the full detection→recovery path
// for one dead partition (checkpoint restore + journal replay +
// quarantine re-push + re-home) on the 3-partition fixture.
func BenchmarkFailoverRecovery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := &testing.T{}
		fx := newFailoverFixture(t)
		clock := resilience.NewFakeClock(time.Unix(1_700_000_000, 0))
		var mu sync.Mutex
		failovers := 0
		sup := fx.supervise(clock, journal.New(256), FailModeRehome, func(FailoverRecord) {
			mu.Lock()
			failovers++
			mu.Unlock()
		})
		fx.event("fva0", "q")
		sup.Checkpoint()
		fx.event("fva1", "q")
		fx.h.LocalFor(fx.part.GroupOf("fva0")).Kill()
		clock.Advance(time.Second)
		b.StartTimer()
		for n := 0; n < 20; n++ {
			sup.Tick()
			mu.Lock()
			done := failovers
			mu.Unlock()
			if done > 0 {
				break
			}
			clock.Advance(100 * time.Millisecond)
		}
		b.StopTimer()
		if failovers == 0 {
			b.Fatal("no failover")
		}
		b.StartTimer()
	}
}

// TestSupervisorLoopDetectsDeadLocal drives the deadman through Start's
// loop, never Tick: the heartbeat ticker exists once Start has
// returned, so the very first advance is a probe (the first miss), and
// further advances walk the confirmation schedule to the failover.
func TestSupervisorLoopDetectsDeadLocal(t *testing.T) {
	fx := newFailoverFixture(t)
	clock := resilience.NewFakeClock(time.Unix(1_700_000_000, 0))
	failed := make(chan FailoverRecord, 1)
	sup := fx.supervise(clock, journal.New(256), FailModeRehome, func(r FailoverRecord) { failed <- r })
	g0 := fx.part.GroupOf("fva0")
	fx.h.LocalFor(g0).Kill()

	sup.Start()
	defer sup.Stop()
	clock.Advance(100 * time.Millisecond)
	misses := func() int {
		for _, cs := range sup.Status().Partitions {
			if cs.Group == g0 {
				return cs.Misses
			}
		}
		return -1
	}
	deadline := time.Now().Add(3 * time.Second)
	for misses() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("misses = %d after the first heartbeat, want 1", misses())
		}
		time.Sleep(time.Millisecond)
	}
	for {
		clock.Advance(100 * time.Millisecond)
		select {
		case r := <-failed:
			if r.Group != g0 {
				t.Fatalf("failed-over group = %d, want %d", r.Group, g0)
			}
			sup.Stop() // waits for the Tick that ran the hook
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no failover through the supervisor's own loop")
		}
	}
}

// TestHierarchyPartitionConverges is the partition-tier form of the
// stale-reconcile regression: concurrent flips of one partition's
// variables run concurrent local reconciles, and once they join the
// local's recorded postures must be the ones its view implies — a
// reconcile that read an older state must not be the last to write.
func TestHierarchyPartitionConverges(t *testing.T) {
	fx := newFailoverFixture(t)
	g := fx.part.GroupOf("fva0")
	local := fx.h.LocalFor(g)
	devs := fx.h.groupDevices(g)
	vals := []string{"a", "b", "q"}
	for round := 0; round < 200; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				fx.event(devs[i%len(devs)], vals[(i+round)%len(vals)])
			}(i)
		}
		wg.Wait()
		got := local.Postures()
		for dev, p := range local.fsm.Lookup(local.View.State()) {
			if got[dev] != p.Key() {
				t.Fatalf("round %d: %s recorded as %q, view implies %q", round, dev, got[dev], p.Key())
			}
		}
	}
}

// TestHierarchyPartitionEnforcementConverges is the convergence check
// at the tier that matters: what the sink last RECEIVED for a device,
// not what the reconciler recorded, must be the posture the view
// implies. Concurrent reconciles of one local decide in version order;
// their deliveries must leave in that order too, or a stale posture
// lands last and lifts a newer quarantine.
func TestHierarchyPartitionEnforcementConverges(t *testing.T) {
	fx := newFailoverFixture(t)
	g := fx.part.GroupOf("fva0")
	local := fx.h.LocalFor(g)
	devs := fx.h.groupDevices(g)
	vals := []string{"a", "b", "q"}
	for round := 0; round < 2000; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				fx.event(devs[i%len(devs)], vals[(i+round)%len(vals)])
			}(i)
		}
		wg.Wait()
		want := local.fsm.Lookup(local.View.State())
		fx.mu.Lock()
		for _, dev := range devs {
			if got := fx.postures[dev]; !got.Equal(want[dev]) {
				t.Errorf("round %d: %s ENFORCED %s, view implies %s", round, dev, got.Key(), want[dev].Key())
			}
		}
		fx.mu.Unlock()
		if t.Failed() {
			return
		}
	}
}

// TestRehomeReplaysReasonWithParens: a quarantine whose journaled
// reason carries attacker-influenced text containing " (" and " = "
// must replay as the same context on the replacement local, which then
// keeps the device quarantined instead of restoring a value no rule
// matches and releasing it.
func TestRehomeReplaysReasonWithParens(t *testing.T) {
	quarantineOn := func(sc policy.SecurityContext) policy.Rule {
		return policy.Rule{
			Name:       "ctx-" + string(sc),
			Conditions: []policy.Condition{policy.DeviceIs("fva0", sc)},
			Device:     "fva0",
			Posture:    policy.Posture{Isolate: true},
			Priority:   9,
		}
	}
	fx := newFailoverFixture(t, quarantineOn(policy.ContextSuspicious), quarantineOn(policy.ContextCompromised))
	clock := resilience.NewFakeClock(time.Unix(1_700_000_000, 0))
	var mu sync.Mutex
	failovers := 0
	sup := fx.supervise(clock, journal.New(256), FailModeRehome, func(FailoverRecord) {
		mu.Lock()
		failovers++
		mu.Unlock()
	})

	ctx := context.Background()
	g0 := fx.part.GroupOf("fva0")
	fx.h.HandleDeviceEvent(ctx, device.Event{Device: "fva0", Kind: device.EventBackdoorAccess, Detail: "id"})
	sup.Checkpoint() // vars: suspicious; postures: isolated
	// After the checkpoint, so it travels by journal replay alone.
	fx.h.LocalFor(g0).View.HandleAlert(ctx, "fva0",
		ids.Alert{SID: 9, Action: ids.ActionBlock, Msg: "cam backdoor (CVE-2014-1234) = known (bad)"})

	fx.h.LocalFor(g0).Kill()
	tickUntilDead(t, clock, sup, 1, &failovers, &mu)

	repl, _ := fx.h.routeFor(g0)
	if repl == nil {
		t.Fatal("partition not re-homed to a replacement local")
	}
	if got := repl.View.DeviceContext("fva0"); got != policy.ContextCompromised {
		t.Errorf("replayed context = %q, want %q", got, policy.ContextCompromised)
	}
	fx.mu.Lock()
	defer fx.mu.Unlock()
	if !fx.postures["fva0"].Isolate || !fx.installed["fva0"] {
		t.Errorf("fva0 released by recovery: posture %s, quarantine installed = %v",
			fx.postures["fva0"].Key(), fx.installed["fva0"])
	}
}
