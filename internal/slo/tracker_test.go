package slo_test

import (
	"strings"
	"testing"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/resilience"
	"iotsec/internal/slo"
	"iotsec/internal/telemetry"
)

// sample digs one series out of a registry snapshot. ok=false when the
// metric or the exact sample is absent.
func sample(reg *telemetry.Registry, metric, suffix string, labels map[string]string) (float64, bool) {
	for _, m := range reg.Snapshot(0).Metrics {
		if m.Name != metric {
			continue
		}
		for _, s := range m.Samples {
			if s.Suffix != suffix {
				continue
			}
			match := true
			for k, want := range labels {
				got := ""
				for _, l := range s.Labels {
					if l.Key == k {
						got = l.Value
					}
				}
				if got != want {
					match = false
				}
			}
			if match {
				return s.Value, true
			}
		}
	}
	return 0, false
}

// waitFor polls cond until it holds (the tracker's consumer goroutine
// handles tapped events asynchronously, so tests poll rather than
// assume a Drain race winner).
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitInflight blocks until the tracker has opened n chains (the
// consumer goroutine handles tapped events asynchronously; chains must
// be open before a test advances the fake clock, or their deadlines
// are stamped with the already-advanced time).
func waitInflight(t *testing.T, tr *slo.Tracker, n int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for tr.Inflight() != n {
		tr.Sync()
		if time.Now().After(deadline) {
			t.Fatalf("tracker never reached %d in-flight chains (have %d)", n, tr.Inflight())
		}
		time.Sleep(time.Millisecond)
	}
}

// emitChain journals a full synthetic detect→enforce chain on trace id.
func emitChain(j *journal.Journal, trace uint64, withFlow bool) {
	j.RecordTrace(trace, journal.TypeAnomaly, journal.Warn, "wemo", "synthetic anomaly")
	j.RecordTrace(trace, journal.TypePosture, journal.Info, "wemo", "posture isolate=true")
	if withFlow {
		j.RecordTrace(trace, journal.TypeFlowMod, journal.Info, "quarantine", "add prio 400")
		j.RecordTrace(trace, journal.TypeFlowApplied, journal.Info, "quarantine", "applied")
	}
	j.RecordTrace(trace, journal.TypeMboxReconfig, journal.Info, "wemo", "pipeline rebuilt")
}

// TestTrackerCorrelatesFullChain drives one synthetic chain through an
// isolated journal and checks every stage histogram plus the
// telescoping e2e ≥ sum-of-stages invariant.
func TestTrackerCorrelatesFullChain(t *testing.T) {
	j := journal.New(256)
	reg := telemetry.NewRegistry()
	tr := slo.NewTracker(j, slo.Options{Registry: reg, ChainTimeout: time.Minute})
	defer tr.Close()

	emitChain(j, 42, true)
	tr.Sync()
	waitFor(t, "chain completion", func() bool {
		v, ok := sample(reg, "iotsec_mttr_complete_total", "", nil)
		return ok && v == 1
	})
	if got := tr.Inflight(); got != 0 {
		t.Fatalf("Inflight = %d after complete chain, want 0", got)
	}
	var stageSum float64
	for _, stage := range slo.Stages {
		c, ok := sample(reg, "iotsec_mttr_stage_seconds", "_count", map[string]string{"stage": stage})
		if !ok || c != 1 {
			t.Fatalf("stage %q count = %v (ok=%v), want 1", stage, c, ok)
		}
		if stage != slo.StageMboxReconfig { // reconfig is a parallel branch, not on the critical path
			s, _ := sample(reg, "iotsec_mttr_stage_seconds", "_sum", map[string]string{"stage": stage})
			stageSum += s
		}
	}
	e2eCount, ok := sample(reg, "iotsec_mttr_e2e_seconds", "_count", nil)
	if !ok || e2eCount != 1 {
		t.Fatalf("e2e count = %v (ok=%v), want 1", e2eCount, ok)
	}
	e2eSum, _ := sample(reg, "iotsec_mttr_e2e_seconds", "_sum", nil)
	if e2eSum+1e-9 < stageSum {
		t.Fatalf("e2e (%g) < sum of critical-path stages (%g): a stage was double-counted", e2eSum, stageSum)
	}
}

// TestTrackerChainWithoutFlowModsCompletes: a posture that emits no
// flow rules (e.g. reconfig-only) must not wait forever for a
// flow-applied that can never come.
func TestTrackerChainWithoutFlowModsCompletes(t *testing.T) {
	j := journal.New(256)
	reg := telemetry.NewRegistry()
	tr := slo.NewTracker(j, slo.Options{Registry: reg, ChainTimeout: time.Minute})
	defer tr.Close()

	emitChain(j, 7, false)
	tr.Sync()
	waitFor(t, "no-flow chain completion", func() bool {
		v, ok := sample(reg, "iotsec_mttr_complete_total", "", nil)
		return ok && v == 1
	})
}

// TestTrackerStalledFlowAppliedCountsIncomplete: flow-mods on the wire
// with no acknowledgment time the chain out under
// missing_stage="flow-applied" and drive the tracker's health Down
// with the stage named.
func TestTrackerStalledFlowAppliedCountsIncomplete(t *testing.T) {
	clk := resilience.NewFakeClock(time.Unix(1000, 0))
	j := journal.New(256)
	reg := telemetry.NewRegistry()
	tr := slo.NewTracker(j, slo.Options{Registry: reg, ChainTimeout: time.Second, Clock: clk})
	defer tr.Close()

	j.RecordTrace(9, journal.TypeAnomaly, journal.Warn, "wemo", "synthetic anomaly")
	j.RecordTrace(9, journal.TypePosture, journal.Info, "wemo", "posture isolate=true")
	j.RecordTrace(9, journal.TypeFlowMod, journal.Info, "quarantine", "add prio 400")
	j.RecordTrace(9, journal.TypeMboxReconfig, journal.Info, "wemo", "pipeline rebuilt")
	waitInflight(t, tr, 1) // chain must stay open waiting for flow-applied

	clk.Advance(2 * time.Second)
	tr.Sync()
	waitFor(t, "incomplete sweep", func() bool { return tr.Incomplete() == 1 })
	if v, ok := sample(reg, "iotsec_mttr_incomplete_total", "", map[string]string{"missing_stage": "flow-applied"}); !ok || v != 1 {
		t.Fatalf(`incomplete_total{missing_stage="flow-applied"} = %v (ok=%v), want 1`, v, ok)
	}
	state, reason := tr.Health()
	if state != telemetry.HealthDown {
		t.Fatalf("Health = %v (%s), want down", state, reason)
	}
	if !strings.Contains(reason, "flow-applied") || !strings.Contains(reason, "wemo") {
		t.Fatalf("health reason %q must name the missing stage and device", reason)
	}

	// The hold window elapses and the tracker recovers on its own.
	clk.Advance(10 * time.Second)
	if state, reason := tr.Health(); state != telemetry.HealthHealthy {
		t.Fatalf("Health after hold = %v (%s), want healthy", state, reason)
	}
}

// TestTrackerDetectionWithoutPostureDegrades: a detection that never
// produces a posture is Degraded (the FSM may legitimately have no
// matching rule), not Down.
func TestTrackerDetectionWithoutPostureDegrades(t *testing.T) {
	clk := resilience.NewFakeClock(time.Unix(1000, 0))
	j := journal.New(256)
	reg := telemetry.NewRegistry()
	tr := slo.NewTracker(j, slo.Options{Registry: reg, ChainTimeout: time.Second, Clock: clk})
	defer tr.Close()

	j.RecordTrace(11, journal.TypeAnomaly, journal.Warn, "cam", "synthetic anomaly")
	waitInflight(t, tr, 1)
	clk.Advance(2 * time.Second)
	tr.Sync()
	waitFor(t, "incomplete sweep", func() bool { return tr.Incomplete() == 1 })

	if v, ok := sample(reg, "iotsec_mttr_incomplete_total", "", map[string]string{"missing_stage": "posture"}); !ok || v != 1 {
		t.Fatalf(`incomplete_total{missing_stage="posture"} = %v (ok=%v), want 1`, v, ok)
	}
	if state, _ := tr.Health(); state != telemetry.HealthDegraded {
		t.Fatalf("Health = %v, want degraded", state)
	}
}

// TestTrackerIgnoresForeignAndUntracedEvents: trace-less events and
// stages whose chain was never started here must not open state.
func TestTrackerIgnoresForeignAndUntracedEvents(t *testing.T) {
	j := journal.New(256)
	reg := telemetry.NewRegistry()
	tr := slo.NewTracker(j, slo.Options{Registry: reg})
	defer tr.Close()

	j.RecordTrace(0, journal.TypeAnomaly, journal.Warn, "x", "untraced")
	j.RecordTrace(99, journal.TypePosture, journal.Info, "x", "stage without a detection")
	time.Sleep(20 * time.Millisecond) // let the consumer goroutine see them
	tr.Sync()
	if got := tr.Inflight(); got != 0 {
		t.Fatalf("Inflight = %d, want 0", got)
	}
}

// TestWatchdogBurnsOnIncompleteWindow: a window whose chains all time
// out violates the budget — slo-burn journal event, burn counter,
// OnBurn callback — and a following healthy window recovers.
func TestWatchdogBurnsOnIncompleteWindow(t *testing.T) {
	clk := resilience.NewFakeClock(time.Unix(1000, 0))
	j := journal.New(256)
	reg := telemetry.NewRegistry()
	tr := slo.NewTracker(j, slo.Options{Registry: reg, ChainTimeout: time.Second, Clock: clk})
	defer tr.Close()

	burned := make(chan slo.Evaluation, 1)
	recovered := make(chan slo.Evaluation, 1)
	w := slo.NewWatchdog(tr, slo.Objectives{
		Target: 100 * time.Millisecond, Quantile: 0.5, Window: time.Minute, MinSamples: 1,
	}, slo.WatchdogOptions{
		Journal: j, Registry: reg, Clock: clk,
		OnBurn:    func(ev slo.Evaluation) { burned <- ev },
		OnRecover: func(ev slo.Evaluation) { recovered <- ev },
	})
	defer w.Stop()

	// Two detections, zero enforcement: both time out inside the window.
	j.RecordTrace(21, journal.TypeAnomaly, journal.Warn, "wemo", "synthetic")
	j.RecordTrace(22, journal.TypeAnomaly, journal.Warn, "wemo", "synthetic")
	waitInflight(t, tr, 2) // chains must open before fake time moves, or their deadlines shift
	clk.Advance(2 * time.Second)
	ev := w.Evaluate()
	if !ev.Burning || ev.Incomplete != 2 || ev.Total != 2 {
		t.Fatalf("evaluation = %+v, want burning with 2/2 incomplete", ev)
	}
	select {
	case <-burned:
	case <-time.After(2 * time.Second):
		t.Fatal("OnBurn never fired")
	}
	if events := j.Snapshot(journal.Filter{Type: journal.TypeSLOBurn}); len(events) != 1 {
		t.Fatalf("journal has %d slo-burn events, want 1", len(events))
	} else if !strings.Contains(events[0].Detail, "p50") {
		t.Fatalf("slo-burn detail %q must state the objective", events[0].Detail)
	}
	if v, ok := sample(reg, "iotsec_slo_burn_total", "", nil); !ok || v != 1 {
		t.Fatalf("burn_total = %v (ok=%v), want 1", v, ok)
	}
	if v, _ := sample(reg, "iotsec_slo_burn_active", "", nil); v != 1 {
		t.Fatalf("burn_active = %v, want 1", v)
	}

	// A healthy window: one fast complete chain, well under target.
	emitChain(j, 23, true)
	waitFor(t, "recovery chain completion", func() bool {
		v, ok := sample(reg, "iotsec_mttr_complete_total", "", nil)
		return ok && v == 1
	})
	ev = w.Evaluate()
	if ev.Burning || ev.OverTarget != 0 || ev.Incomplete != 0 {
		t.Fatalf("recovery evaluation = %+v, want clean", ev)
	}
	select {
	case <-recovered:
	case <-time.After(2 * time.Second):
		t.Fatal("OnRecover never fired")
	}
	if v, _ := sample(reg, "iotsec_slo_burn_active", "", nil); v != 0 {
		t.Fatalf("burn_active after recovery = %v, want 0", v)
	}
	// Burn was one episode: the counter did not move on recovery.
	if v, _ := sample(reg, "iotsec_slo_burn_total", "", nil); v != 1 {
		t.Fatalf("burn_total after recovery = %v, want 1", v)
	}
}

// TestWatchdogSkipsLowTrafficWindows: below MinSamples the verdict is
// Skipped and the burn state holds steady.
func TestWatchdogSkipsLowTrafficWindows(t *testing.T) {
	j := journal.New(256)
	reg := telemetry.NewRegistry()
	tr := slo.NewTracker(j, slo.Options{Registry: reg})
	defer tr.Close()
	w := slo.NewWatchdog(tr, slo.Objectives{Target: time.Second, MinSamples: 5}, slo.WatchdogOptions{
		Journal: j, Registry: reg,
	})
	defer w.Stop()

	emitChain(j, 31, true)
	ev := w.Evaluate()
	if !ev.Skipped || ev.Burning {
		t.Fatalf("evaluation = %+v, want skipped and not burning", ev)
	}
	if events := j.Snapshot(journal.Filter{Type: journal.TypeSLOBurn}); len(events) != 0 {
		t.Fatalf("skipped window journaled %d slo-burn events, want 0", len(events))
	}
}

// TestWatchdogTickerEmitsWithinOneWindow is the acceptance check: with
// the watchdog Started (ticker-driven, fake clock), a window of
// violating traffic produces the slo-burn journal event within one
// evaluation window.
func TestWatchdogTickerEmitsWithinOneWindow(t *testing.T) {
	clk := resilience.NewFakeClock(time.Unix(1000, 0))
	j := journal.New(256)
	reg := telemetry.NewRegistry()
	tr := slo.NewTracker(j, slo.Options{Registry: reg, ChainTimeout: 10 * time.Millisecond, Clock: clk})
	defer tr.Close()
	w := slo.NewWatchdog(tr, slo.Objectives{
		Target: 50 * time.Millisecond, Quantile: 0.9, Window: time.Second, MinSamples: 1,
	}, slo.WatchdogOptions{Journal: j, Registry: reg, Clock: clk})
	w.Start()
	defer w.Stop()

	j.RecordTrace(41, journal.TypeAnomaly, journal.Warn, "wemo", "synthetic")
	waitInflight(t, tr, 1)
	clk.Advance(time.Second) // one full window: chain times out AND the ticker fires

	deadline := time.Now().Add(3 * time.Second)
	for {
		if events := j.Snapshot(journal.Filter{Type: journal.TypeSLOBurn}); len(events) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no slo-burn journal event within one window; last eval %+v", w.Last())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !w.Burning() {
		t.Fatal("watchdog not burning after the violating window")
	}
}

// TestBenignDeviceEventsDoNotBurn: traced device events (one per
// authenticated management command) open chains that never reach a
// posture. They expire as unescalated — not incomplete, not +Inf
// samples for the watchdog, not a health problem — however many there
// are, while the one real detection among them keeps today's
// semantics.
func TestBenignDeviceEventsDoNotBurn(t *testing.T) {
	clk := resilience.NewFakeClock(time.Unix(1000, 0))
	j := journal.New(256)
	reg := telemetry.NewRegistry()
	tr := slo.NewTracker(j, slo.Options{Registry: reg, ChainTimeout: time.Second, Clock: clk})
	defer tr.Close()
	w := slo.NewWatchdog(tr, slo.Objectives{
		Target: 100 * time.Millisecond, Quantile: 0.5, Window: time.Minute, MinSamples: 1,
	}, slo.WatchdogOptions{Journal: j, Registry: reg, Clock: clk})
	defer w.Stop()

	const benign = 50
	for i := 0; i < benign; i++ {
		j.RecordTrace(uint64(100+i), journal.TypeDeviceEvent, journal.Debug, "cam", "command: STATUS")
	}
	waitInflight(t, tr, benign)
	clk.Advance(2 * time.Second)
	if ev := w.Evaluate(); ev.Burning || ev.Incomplete != 0 {
		t.Fatalf("evaluation over benign traffic = %+v, want no incompletes and no burn", ev)
	}
	if got := tr.Incomplete(); got != 0 {
		t.Fatalf("Incomplete = %d after %d benign device events, want 0", got, benign)
	}
	if v, ok := sample(reg, "iotsec_mttr_unescalated_total", "", nil); !ok || v != benign {
		t.Fatalf("unescalated_total = %v (ok=%v), want %d", v, ok, benign)
	}
	if v, _ := sample(reg, "iotsec_mttr_incomplete_total", "", map[string]string{"missing_stage": "posture"}); v != 0 {
		t.Fatalf(`incomplete_total{missing_stage="posture"} = %v, want 0`, v)
	}
	if state, reason := tr.Health(); state != telemetry.HealthHealthy {
		t.Fatalf("Health = %v (%s), want healthy", state, reason)
	}

	// The other side: a device event an alert joins on the same trace
	// owes a posture, and one that drew a posture owes its enforcement.
	j.RecordTrace(201, journal.TypeDeviceEvent, journal.Debug, "cam", "command: STATUS")
	j.RecordTrace(201, journal.TypeAlert, journal.Warn, "cam", "sid 1: factory credentials")
	j.RecordTrace(202, journal.TypeDeviceEvent, journal.Debug, "cam", "smoke: detected")
	j.RecordTrace(202, journal.TypePosture, journal.Warn, "cam", "v7 isolate")
	waitInflight(t, tr, 2)
	clk.Advance(2 * time.Second)
	if ev := w.Evaluate(); !ev.Burning || ev.Incomplete != 2 {
		t.Fatalf("evaluation = %+v, want burning with 2 incomplete", ev)
	}
	if v, _ := sample(reg, "iotsec_mttr_incomplete_total", "", map[string]string{"missing_stage": "posture"}); v != 1 {
		t.Fatalf(`incomplete_total{missing_stage="posture"} = %v, want 1`, v)
	}
	if v, _ := sample(reg, "iotsec_mttr_incomplete_total", "", map[string]string{"missing_stage": "mbox-reconfig"}); v != 1 {
		t.Fatalf(`incomplete_total{missing_stage="mbox-reconfig"} = %v, want 1`, v)
	}
	if v, _ := sample(reg, "iotsec_mttr_unescalated_total", "", nil); v != benign {
		t.Fatalf("unescalated_total moved to %v, want %d", v, benign)
	}
}

// TestTrackerLoopSweepsWithoutSync drives the tracker through its own
// loop only — no Sync barrier: the tap's wake opens the chain, and the
// sweep ticker, which exists once NewTracker has returned, sees the
// clock advance and expires it.
func TestTrackerLoopSweepsWithoutSync(t *testing.T) {
	clk := resilience.NewFakeClock(time.Unix(1000, 0))
	j := journal.New(256)
	tr := slo.NewTracker(j, slo.Options{Registry: telemetry.NewRegistry(), ChainTimeout: time.Second, Clock: clk})
	defer tr.Close()

	j.RecordTrace(13, journal.TypeAnomaly, journal.Warn, "cam", "synthetic anomaly")
	waitFor(t, "the wake to open the chain", func() bool { return tr.Inflight() == 1 })
	clk.Advance(time.Second)
	waitFor(t, "the tick to expire it", func() bool { return tr.Incomplete() == 1 })
}

// TestBenignDeviceEventFloodStaysBounded: a data plane serving 100k
// authenticated commands inside one ChainTimeout costs the tracker at
// most ParkedCap remembered device events, not 100k chains — and every
// one of them is still accounted for as unescalated, whether it expired
// or was overwritten by a newer one.
func TestBenignDeviceEventFloodStaysBounded(t *testing.T) {
	clk := resilience.NewFakeClock(time.Unix(1000, 0))
	j := journal.New(8192)
	reg := telemetry.NewRegistry()
	tr := slo.NewTracker(j, slo.Options{Registry: reg, Clock: clk})
	defer tr.Close()

	const n = 100_000
	for i := 0; i < n; i++ {
		j.RecordTrace(uint64(1000+i), journal.TypeDeviceEvent, journal.Debug, "cam", "command: STATUS")
		if i%1024 == 1023 { // keep the 4,096-event tap from overflowing
			tr.Sync()
			if got := tr.Inflight(); got > slo.ParkedCap {
				t.Fatalf("Inflight = %d after %d device events, want ≤ %d", got, i+1, slo.ParkedCap)
			}
		}
	}
	tr.Sync()
	if got := tr.Inflight(); got != slo.ParkedCap {
		t.Fatalf("Inflight = %d, want the %d most recent device events", got, slo.ParkedCap)
	}
	if v, _ := sample(reg, "iotsec_mttr_unescalated_total", "", nil); v != n-slo.ParkedCap {
		t.Fatalf("unescalated_total = %v before any timeout, want the %d overwritten", v, n-slo.ParkedCap)
	}
	clk.Advance(6 * time.Second)
	tr.Sync()
	if got := tr.Inflight(); got != 0 {
		t.Fatalf("Inflight = %d after the timeout, want 0", got)
	}
	if v, _ := sample(reg, "iotsec_mttr_unescalated_total", "", nil); v != n {
		t.Fatalf("unescalated_total = %v, want every one of the %d device events", v, n)
	}
	if got := tr.Incomplete(); got != 0 {
		t.Fatalf("Incomplete = %d, want 0", got)
	}
	if v, _ := sample(reg, "iotsec_mttr_tap_dropped_total", "", nil); v != 0 {
		t.Fatalf("the tap dropped %v events: the test lost count, not the tracker", v)
	}
}

// TestParkedDeviceEventStartsTheChain: when an anomaly — or, with no
// detection at all, the posture itself — joins a parked device event's
// trace, the chain that completes is measured from the device event,
// not from whatever joined it.
func TestParkedDeviceEventStartsTheChain(t *testing.T) {
	const gap = 20 * time.Millisecond
	for name, join := range map[string]func(j *journal.Journal, trace uint64){
		"anomaly": func(j *journal.Journal, trace uint64) {
			j.RecordTrace(trace, journal.TypeAnomaly, journal.Warn, "cam", "login failures")
			j.RecordTrace(trace, journal.TypePosture, journal.Warn, "cam", "v3 isolate")
		},
		"posture": func(j *journal.Journal, trace uint64) {
			j.RecordTrace(trace, journal.TypePosture, journal.Warn, "cam", "v3 isolate")
		},
	} {
		t.Run(name, func(t *testing.T) {
			j := journal.New(256)
			reg := telemetry.NewRegistry()
			tr := slo.NewTracker(j, slo.Options{Registry: reg, ChainTimeout: time.Minute})
			defer tr.Close()

			j.RecordTrace(7, journal.TypeDeviceEvent, journal.Debug, "cam", "smoke: detected")
			j.RecordTrace(8, journal.TypeDeviceEvent, journal.Debug, "cam", "command: STATUS")
			time.Sleep(gap) // the journal stamps Mono from the wall clock: make the start tell
			join(j, 7)
			j.RecordTrace(7, journal.TypeMboxReconfig, journal.Info, "mb-cam", "pipeline rebuilt")
			tr.Sync()

			if v, _ := sample(reg, "iotsec_mttr_complete_total", "", nil); v != 1 {
				t.Fatalf("complete_total = %v, want 1", v)
			}
			if sum, _ := sample(reg, "iotsec_mttr_e2e_seconds", "_sum", nil); sum < gap.Seconds() {
				t.Fatalf("e2e = %gs, want ≥ %s: the chain did not start at the device event", sum, gap)
			}
			if got := tr.Inflight(); got != 1 {
				t.Fatalf("Inflight = %d, want 1 (the other device event, still parked)", got)
			}
		})
	}
}
