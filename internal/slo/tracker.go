// Package slo is the live SLO plane: it measures the paper's one
// number that matters — how fast an anomaly becomes an enforced
// µmbox/flow change — *online*, while the system runs, instead of by
// replaying the forensic journal after the fact.
//
// The paper's §2/§5 argument is that IoT flaws are unfixable, so the
// defense is reaction time: detect → posture → FLOW_MOD → applied →
// µmbox reconfig. PR 2 made that chain reconstructable post-hoc from
// trace-ID-stamped journal events; this package taps the same event
// stream (journal.Subscribe, bounded, drop-oldest) and correlates the
// chains as they happen into per-stage and end-to-end MTTR histograms,
// counts chains that never finish, aggregates the result into the
// process health registry, and — via the Watchdog — turns sustained
// SLO burn back into an operator signal (journal event, counter).
package slo

import (
	"fmt"
	"sync"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/resilience"
	"iotsec/internal/telemetry"
)

// Canonical chain stages, in causal order. Stage latencies are deltas
// from the stage's causal predecessor (posture from the detection,
// flow-mod from the posture, flow-applied from the flow-mod crossing
// the wire, mbox-reconfig from the posture), so the telescoping sum
// detect→posture→flow-mod→flow-applied is always ≤ the end-to-end
// latency.
const (
	StagePosture      = "posture"
	StageFlowMod      = "flow-mod"
	StageFlowApplied  = "flow-applied"
	StageMboxReconfig = "mbox-reconfig"
)

// Stages lists the canonical stages in causal order.
var Stages = []string{StagePosture, StageFlowMod, StageFlowApplied, StageMboxReconfig}

// Component is the health-registry name the tracker reports under.
const Component = "mttr-pipeline"

// tapBuffer is the journal-tap ring size, in events.
const tapBuffer = 4096

// parkedCap bounds the device events remembered in case something
// joins their trace. One arrives per authenticated management command,
// so their number is the request rate × ChainTimeout; the ones that
// matter are joined within the same reaction (microseconds later), so
// remembering the most recent few thousand loses nothing but the start
// time of a chain that would have been late anyway.
const parkedCap = 4096

// Options configures a Tracker. The zero value is usable.
type Options struct {
	// Registry receives the MTTR metrics (Default when nil). Metric
	// registration is idempotent, so several trackers on one registry
	// share series (tests use isolated registries).
	Registry *telemetry.Registry
	// ChainTimeout is how long a chain may stay open before it is
	// counted incomplete (default 5s — generous against the modeled
	// µmbox boot latencies, tight against a stuck enforcement path).
	ChainTimeout time.Duration
	// SweepEvery is the incomplete-chain sweep period (default
	// ChainTimeout/4).
	SweepEvery time.Duration
	// Clock drives timeouts and health decay (resilience.System when
	// nil); tests inject a FakeClock. Stage latencies do NOT use it —
	// they come from the journal's own monotonic event offsets.
	Clock resilience.Clock
}

// opener is a traced device event nothing has joined yet: what a chain
// opened by it would need, and nothing more.
type opener struct {
	device   string
	start    time.Duration // journal Mono of the device event
	deadline time.Time     // tracker-clock expiry
}

// chain is one in-flight detect→enforce correlation.
type chain struct {
	device string
	// benign marks a chain opened by a plain device event (one per
	// authenticated management command) that no anomaly or alert has
	// joined: the FSM is not expected to answer those with a posture.
	benign   bool
	start    time.Duration            // journal Mono of the detection
	stages   map[string]time.Duration // first-occurrence Mono per stage
	deadline time.Time                // tracker-clock expiry
}

// Tracker consumes a journal tap and folds trace-ID-correlated chains
// into live MTTR metrics:
//
//	iotsec_mttr_stage_seconds{stage=...}  per-stage latency
//	iotsec_mttr_e2e_seconds               detection → last enforcement
//	iotsec_mttr_incomplete_total{missing_stage=...}
//	iotsec_mttr_unescalated_total         device events that needed no posture
//
// plus scrape-time gauges for in-flight chains and tap drops. The
// consumer is a resilience.Loop (wake = the tap, tick = the timeout
// sweep); the hot journal path only pays the tap's cursor bump.
type Tracker struct {
	j     *journal.Journal
	sub   *journal.Subscription
	clock resilience.Clock
	reg   *telemetry.Registry

	chainTimeout time.Duration
	// healthHold is how long after an incomplete chain the tracker's
	// health stays non-Healthy (4×chainTimeout): long enough for a
	// probe to see it, short enough to recover on its own.
	healthHold time.Duration

	mStage       *telemetry.HistogramVec
	mE2E         *telemetry.Histogram
	mIncomplete  *telemetry.CounterVec
	mUnescalated *telemetry.Counter
	mCompleted   *telemetry.Counter

	mu     sync.Mutex
	chains map[uint64]*chain
	order  []uint64 // insertion order, for deterministic sweeps
	// parked holds device events by trace until an anomaly, alert or
	// stage joins one (it becomes a chain, starting where the device
	// event did) or it expires or is overwritten (unescalated). Almost
	// all of them are benign, so they cost a map slot, not a chain.
	parked          *resilience.Recent[uint64, opener]
	incompleteCount uint64
	lastIncomplete  incompleteMark
	lastEnforceMiss incompleteMark // missing stage beyond posture

	loop resilience.Loop
}

// incompleteMark remembers the most recent incomplete chain for
// health reasons strings.
type incompleteMark struct {
	at      time.Time
	stage   string
	device  string
	traceID uint64
}

// NewTracker attaches a tracker to j and starts its consumer. Close
// detaches it.
func NewTracker(j *journal.Journal, opts Options) *Tracker {
	if j == nil {
		j = journal.Default
	}
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.Default
	}
	clock := opts.Clock
	if clock == nil {
		clock = resilience.System
	}
	timeout := opts.ChainTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	sweep := opts.SweepEvery
	if sweep <= 0 {
		sweep = timeout / 4
	}
	t := &Tracker{
		j:            j,
		sub:          j.Subscribe(tapBuffer),
		clock:        clock,
		reg:          reg,
		chainTimeout: timeout,
		healthHold:   4 * timeout,
		chains:       make(map[uint64]*chain),
		parked:       resilience.NewRecent[uint64, opener](parkedCap),
	}
	t.mStage = reg.NewHistogramVec("iotsec_mttr_stage_seconds",
		"Per-stage detect→enforce latency, measured online from the journal tap (delta from the stage's causal predecessor).",
		telemetry.LatencyBuckets, "stage")
	t.mE2E = reg.NewHistogram("iotsec_mttr_e2e_seconds",
		"End-to-end detect→enforce latency (detection to last enforcement event of the chain), measured online.",
		telemetry.LatencyBuckets)
	t.mIncomplete = reg.NewCounterVec("iotsec_mttr_incomplete_total",
		"Chains that timed out before completing, by first missing canonical stage.", "missing_stage")
	t.mUnescalated = reg.NewCounter("iotsec_mttr_unescalated_total",
		"Device events that expired (or were overwritten by newer ones) without a posture: benign traffic the policy did not escalate, not an enforcement miss.")
	t.mCompleted = reg.NewCounter("iotsec_mttr_complete_total",
		"Chains that closed the detect→enforce loop.")
	reg.RegisterCollector("slo-tracker", t.collect)
	t.loop.Start(clock, sweep, t.sub.Wait(), t.pass)
	return t
}

// pass drains the tap and folds it, then (on a tick) sweeps timeouts.
// The drain happens under t.mu, so a pass on the loop and a Sync on a
// caller fold their batches in journal order.
func (t *Tracker) pass(sweep bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.sub.Drain() {
		t.handleLocked(e)
	}
	if sweep {
		t.sweepLocked()
	}
}

// handleLocked folds one journal event into chain state.
func (t *Tracker) handleLocked(e journal.Event) {
	if e.TraceID == 0 {
		return
	}
	switch e.Type {
	case journal.TypeDeviceEvent:
		if _, open := t.chains[e.TraceID]; open {
			return
		}
		if _, parked := t.parked.Get(e.TraceID); parked {
			return // the first device event of the trace is its start
		}
		if t.parked.Put(e.TraceID, opener{
			device:   e.Device,
			start:    e.Mono,
			deadline: t.clock.Now().Add(t.chainTimeout),
		}) {
			t.mUnescalated.Inc() // overwritten before anything joined it
		}
	case journal.TypeAnomaly, journal.TypeAlert:
		if c, ok := t.chainLocked(e.TraceID); ok {
			// Keep the first detection of the chain; a detection joining
			// a device event's chain makes it one that owes a posture.
			c.benign = false
			return
		}
		t.openLocked(e.TraceID, &chain{
			device:   e.Device,
			start:    e.Mono,
			deadline: t.clock.Now().Add(t.chainTimeout),
		})
	case journal.TypePosture:
		t.stageLocked(e, StagePosture, "")
	case journal.TypeFlowMod:
		t.stageLocked(e, StageFlowMod, StagePosture)
	case journal.TypeFlowApplied:
		t.stageLocked(e, StageFlowApplied, StageFlowMod)
		t.maybeCompleteLocked(e.TraceID)
	case journal.TypeMboxReconfig:
		t.stageLocked(e, StageMboxReconfig, StagePosture)
		t.maybeCompleteLocked(e.TraceID)
	}
}

// openLocked starts tracking a chain.
func (t *Tracker) openLocked(traceID uint64, c *chain) {
	c.stages = make(map[string]time.Duration, 4)
	t.chains[traceID] = c
	t.order = append(t.order, traceID)
}

// chainLocked finds the trace's open chain, opening it from the parked
// device event if that is all the tracker has seen of the trace so far:
// the chain starts, and expires, when the device event would have.
func (t *Tracker) chainLocked(traceID uint64) (*chain, bool) {
	if c, ok := t.chains[traceID]; ok {
		return c, true
	}
	o, ok := t.parked.Get(traceID)
	if !ok {
		return nil, false
	}
	t.parked.Delete(traceID)
	c := &chain{device: o.device, benign: true, start: o.start, deadline: o.deadline}
	t.openLocked(traceID, c)
	return c, true
}

// stageLocked records the first occurrence of a stage as a delta from
// its causal predecessor (falling back to the detection when the
// predecessor was never seen, e.g. a flow-applied whose flow-mod event
// was evicted from the tap).
func (t *Tracker) stageLocked(e journal.Event, stage, pred string) {
	c, ok := t.chainLocked(e.TraceID)
	if !ok {
		return // chain never started here (standing-quarantine re-applies, foreign traces)
	}
	if _, seen := c.stages[stage]; seen {
		return // first occurrence wins (e.g. one flow-mod per switch)
	}
	c.stages[stage] = e.Mono
	base := c.start
	if pred != "" {
		if p, ok := c.stages[pred]; ok {
			base = p
		}
	}
	d := e.Mono - base
	if d < 0 {
		d = 0 // tap reordering across the ring; clamp rather than poison the histogram
	}
	t.mStage.With(stage).Observe(d.Seconds())
}

// maybeCompleteLocked answers "is this chain's SLO sample final" — a
// stricter question than journal.Timeline.Complete's forensic "did the
// loop close", and deliberately not folded into it: the µmbox pipeline
// was reconfigured AND — if the posture emitted flow
// rules at all — at least one switch acknowledged applying them.
// (FLOW_MODs are journaled synchronously before the reconfig event,
// so by the time mbox-reconfig arrives we know whether to wait for a
// flow-applied.) End-to-end latency is detection → latest stage.
func (t *Tracker) maybeCompleteLocked(traceID uint64) {
	c, ok := t.chains[traceID]
	if !ok {
		return
	}
	if _, ok := c.stages[StageMboxReconfig]; !ok {
		return
	}
	_, flowMod := c.stages[StageFlowMod]
	_, applied := c.stages[StageFlowApplied]
	if flowMod && !applied {
		return
	}
	last := c.start
	for _, m := range c.stages {
		if m > last {
			last = m
		}
	}
	t.mE2E.Observe((last - c.start).Seconds())
	t.mCompleted.Inc()
	t.dropLocked(traceID)
}

// sweepLocked expires chains past their deadline, counting each under
// its first missing canonical stage — except device-event chains that
// never drew a posture, and parked device events nothing ever joined,
// which are unescalated traffic.
func (t *Tracker) sweepLocked() {
	now := t.clock.Now()
	for {
		id, o, ok := t.parked.Oldest()
		if !ok || o.deadline.After(now) {
			break
		}
		t.parked.Delete(id)
		t.mUnescalated.Inc()
	}
	var keep []uint64
	for _, id := range t.order {
		c, ok := t.chains[id]
		if !ok {
			continue
		}
		if c.deadline.After(now) {
			keep = append(keep, id)
			continue
		}
		missing := missingStage(c)
		if c.benign && missing == StagePosture {
			// Not a miss: it stays out of the incomplete count, which
			// the watchdog judges as +Inf latency samples.
			t.mUnescalated.Inc()
			delete(t.chains, id)
			continue
		}
		t.mIncomplete.With(missing).Inc()
		t.incompleteCount++
		mark := incompleteMark{at: now, stage: missing, device: c.device, traceID: id}
		t.lastIncomplete = mark
		if missing != StagePosture {
			t.lastEnforceMiss = mark
		}
		delete(t.chains, id)
	}
	t.order = keep
}

// missingStage picks the first canonical stage the chain never
// reached. A chain with flow-mods on the wire but no acknowledgment is
// "flow-applied" even if the µmbox reconfig landed — the network half
// of the enforcement is the part that is missing.
func missingStage(c *chain) string {
	if _, ok := c.stages[StagePosture]; !ok {
		return StagePosture
	}
	_, flowMod := c.stages[StageFlowMod]
	_, applied := c.stages[StageFlowApplied]
	if flowMod && !applied {
		return StageFlowApplied
	}
	if _, ok := c.stages[StageMboxReconfig]; !ok {
		return StageMboxReconfig
	}
	return StageFlowApplied
}

// dropLocked removes a chain from both the map and the order list. The
// scan is over chains something has joined — incidents in flight —
// never over the benign device events, which stay parked.
func (t *Tracker) dropLocked(traceID uint64) {
	delete(t.chains, traceID)
	for i, id := range t.order {
		if id == traceID {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}

// collect emits scrape-time series: in-flight chains and tap drops.
func (t *Tracker) collect(emit func(name string, kind telemetry.Kind, help string, labels telemetry.Labels, value float64)) {
	emit("iotsec_mttr_inflight_chains", telemetry.KindGauge,
		"Detect→enforce chains currently open in the tracker, parked device events included.", nil, float64(t.Inflight()))
	emit("iotsec_mttr_tap_dropped_total", telemetry.KindCounter,
		"Journal-tap events evicted before the tracker drained them (drop-oldest).",
		nil, float64(t.sub.Evicted()))
}

// Health is a telemetry.HealthReporter: Down while a chain recently
// timed out mid-enforcement (posture seen, enforcement never
// acknowledged), Degraded while detections recently produced no
// posture at all, Healthy otherwise. The hold window keeps the state
// visible long enough for probes to observe it.
func (t *Tracker) Health() (telemetry.HealthState, string) {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if m := t.lastEnforceMiss; !m.at.IsZero() && now.Sub(m.at) < t.healthHold {
		return telemetry.HealthDown, fmt.Sprintf(
			"incomplete detect→enforce chain: missing stage %s (device %s, trace %016x, %s ago)",
			m.stage, m.device, m.traceID, now.Sub(m.at).Round(time.Millisecond))
	}
	if m := t.lastIncomplete; !m.at.IsZero() && now.Sub(m.at) < t.healthHold {
		return telemetry.HealthDegraded, fmt.Sprintf(
			"detection produced no posture within %s (device %s, trace %016x)",
			t.chainTimeout, m.device, m.traceID)
	}
	return telemetry.HealthHealthy, ""
}

// RegisterHealth registers the tracker as the critical "mttr-pipeline"
// component on h: a stalled enforcement path flips /readyz to 503 with
// the missing stage in the reason.
func (t *Tracker) RegisterHealth(h *telemetry.HealthRegistry) {
	h.Register(Component, true, t.Health)
}

// Inflight reports open chains plus parked device events: every trace
// the tracker is still holding state for.
func (t *Tracker) Inflight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.chains) + t.parked.Len()
}

// Incomplete reports the total chains counted incomplete.
func (t *Tracker) Incomplete() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.incompleteCount
}

// E2E exposes the end-to-end histogram (the watchdog windows it).
func (t *Tracker) E2E() *telemetry.Histogram { return t.mE2E }

// Rollup snapshots the cumulative end-to-end histogram. Together with
// Sync and Incomplete it makes the tracker a watchdog Source.
func (t *Tracker) Rollup() telemetry.HistogramRollup { return t.mE2E.Rollup() }

// Sync runs one tick's pass on the caller — a deterministic barrier
// for tests and for the watchdog's evaluation tick (so an evaluation
// judges every event that is already in the tap).
func (t *Tracker) Sync() { t.pass(true) }

// Close stops the consumer and detaches the tap. Idempotent.
func (t *Tracker) Close() {
	t.loop.Stop()
	t.sub.Close()
	t.reg.UnregisterCollector("slo-tracker")
}
