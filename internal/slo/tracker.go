// Package slo is the live SLO plane: it measures the paper's one
// number that matters — how fast an anomaly becomes an enforced
// µmbox/flow change — *online*, while the system runs, instead of by
// replaying the forensic journal after the fact.
//
// The paper's §2/§5 argument is that IoT flaws are unfixable, so the
// defense is reaction time: detect → posture → FLOW_MOD → applied →
// µmbox reconfig. PR 2 made that chain reconstructable post-hoc from
// trace-ID-stamped journal events; this package reads the same chains
// as they happen, from the journal's one trace correlator (package
// correlate, shared with the forensics capturer), and folds them into
// per-stage and end-to-end MTTR histograms,
// counts chains that never finish, aggregates the result into the
// process health registry, and — via the Watchdog — turns sustained
// SLO burn back into an operator signal (journal event, counter).
package slo

import (
	"fmt"
	"time"

	"iotsec/internal/correlate"
	"iotsec/internal/journal"
	"iotsec/internal/resilience"
	"iotsec/internal/telemetry"
)

// Component is the health-registry name the tracker reports under.
const Component = "mttr-pipeline"

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
	// Clock drives timeouts and health decay (resilience.System when
	// nil); tests inject a FakeClock. Stage latencies do NOT use it —
	// they come from the journal's own monotonic event offsets.
	Clock resilience.Clock
}

// Tracker observes the journal's trace correlator and folds its chains
// into live MTTR metrics. A chain's stages are the journal event types
// posture, flow-mod, flow-applied and mbox-reconfig; each stage's
// latency is a delta from its causal predecessor (posture from the
// detection, flow-mod from the posture, flow-applied from the flow-mod
// crossing the wire, mbox-reconfig from the posture), so the
// telescoping sum detect→posture→flow-mod→flow-applied is always ≤ the
// end-to-end latency:
//
//	iotsec_mttr_stage_seconds{stage=...}  per-stage latency
//	iotsec_mttr_e2e_seconds               detection → last enforcement
//	iotsec_mttr_incomplete_total{missing_stage=...}
//	iotsec_mttr_unescalated_total         device events that needed no posture
//
// plus scrape-time gauges for in-flight chains and tap drops. A chain
// opens for the tracker at an anomaly or alert, or at a stage joining a
// parked device event (it then starts where the device event did);
// every stage reading comes from the chain's own event list. A device
// event nothing joins is unescalated traffic, not a miss.
type Tracker struct {
	corr  *correlate.Correlator
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

	// Guarded by the correlator's lock.
	open            int // chains held
	incompleteCount uint64
	lastIncomplete  incompleteMark
	lastEnforceMiss incompleteMark // missing stage beyond posture
}

// observer is the Tracker's side of the correlator: its methods stay
// off the Tracker's own API.
type observer Tracker

// incompleteMark remembers the most recent incomplete chain for
// health reasons strings.
type incompleteMark struct {
	at      time.Time
	stage   journal.Type
	device  string
	traceID uint64
}

// NewTracker attaches a tracker to j's correlator. Close detaches it.
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
	t := &Tracker{
		clock:        clock,
		reg:          reg,
		chainTimeout: timeout,
		healthHold:   4 * timeout,
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
	t.corr = correlate.Attach(j, clock, (*observer)(t), timeout, timeout/4)
	return t
}

// stagePred maps each stage to its causal predecessor ("" = the
// detection that opened the chain).
var stagePred = map[journal.Type]journal.Type{
	journal.TypePosture:      "",
	journal.TypeFlowMod:      journal.TypePosture,
	journal.TypeFlowApplied:  journal.TypeFlowMod,
	journal.TypeMboxReconfig: journal.TypePosture,
}

// Opens: a detection opens a chain; a stage opens one only by joining
// a parked trace, which begins at its device event (stages of foreign
// traces, or standing quarantines re-applied, start nothing).
func (o *observer) Opens(parked []journal.Event, e journal.Event) bool {
	if e.Type == journal.TypeAnomaly || e.Type == journal.TypeAlert {
		return true
	}
	_, stage := stagePred[e.Type]
	return stage && len(parked) > 0
}

// Fold opens the tracker's view at a device event or detection, records
// each stage's first occurrence as a delta from its causal predecessor
// (falling back to the chain start when the predecessor was never seen,
// e.g. a flow-applied whose flow-mod event was evicted from the tap),
// and closes the chain once its SLO sample is final. Events past the
// chain's retained head are not read: the sample and the incident read
// the same record.
func (o *observer) Fold(c *correlate.Chain, e journal.Event, i int, at time.Time) {
	if i < 0 {
		return
	}
	h := c.Holds[o]
	if h == nil {
		switch e.Type {
		case journal.TypeDeviceEvent, journal.TypeAnomaly, journal.TypeAlert:
			c.Hold(o, &correlate.Hold{From: i, Due: at.Add(o.chainTimeout)})
			o.open++
		}
		return
	}
	pred, stage := stagePred[e.Type]
	if !stage {
		return
	}
	view := c.Events[h.From : i+1]
	if indexOf(view[:len(view)-1], e.Type) < 0 { // first occurrence wins (e.g. one flow-mod per switch)
		base := view[0].Mono
		if k := indexOf(view, pred); pred != "" && k >= 0 {
			base = view[k].Mono
		}
		// Clamp tap reordering across the ring rather than poison the histogram.
		o.mStage.With(string(e.Type)).Observe(max(e.Mono-base, 0).Seconds())
	}
	if (e.Type == journal.TypeFlowApplied || e.Type == journal.TypeMboxReconfig) && journal.SLOMissing(view) == "" {
		o.mE2E.Observe((lastStage(view) - view[0].Mono).Seconds())
		o.mCompleted.Inc()
		delete(c.Holds, o)
		o.open--
	}
}

// Expire counts a timed-out chain under its first missing canonical
// stage — except a device event's chain that no detection joined and
// that never drew a posture, which is unescalated traffic: it stays out
// of the incomplete count, which the watchdog judges as +Inf latency
// samples.
func (o *observer) Expire(c *correlate.Chain, h *correlate.Hold) {
	o.open--
	view := c.Events[h.From:]
	missing := journal.SLOMissing(view)
	benign := view[0].Type == journal.TypeDeviceEvent &&
		indexOf(view, journal.TypeAnomaly) < 0 && indexOf(view, journal.TypeAlert) < 0
	if benign && missing == journal.TypePosture {
		o.mUnescalated.Inc()
		return
	}
	o.mIncomplete.With(string(missing)).Inc()
	o.incompleteCount++
	mark := incompleteMark{at: o.clock.Now(), stage: missing, device: view[0].Device, traceID: c.TraceID}
	o.lastIncomplete = mark
	if missing != journal.TypePosture {
		o.lastEnforceMiss = mark
	}
}

// Forget counts a parked device event nothing joined as unescalated.
func (o *observer) Forget([]journal.Event) { o.mUnescalated.Inc() }

// indexOf finds the first event of type t (-1 when there is none).
func indexOf(events []journal.Event, t journal.Type) int {
	for i, e := range events {
		if e.Type == t {
			return i
		}
	}
	return -1
}

// lastStage is the latest first occurrence of any stage in view, or
// the chain start when it has none.
func lastStage(view []journal.Event) time.Duration {
	last := view[0].Mono
	for i, e := range view {
		if _, stage := stagePred[e.Type]; stage && indexOf(view[:i], e.Type) < 0 {
			last = max(last, e.Mono)
		}
	}
	return last
}

// collect emits scrape-time series: in-flight chains and tap drops.
func (t *Tracker) collect(emit func(name string, kind telemetry.Kind, help string, labels telemetry.Labels, value float64)) {
	emit("iotsec_mttr_inflight_chains", telemetry.KindGauge,
		"Detect→enforce chains currently open in the tracker, parked device events included.", nil, float64(t.Inflight()))
	emit("iotsec_mttr_tap_dropped_total", telemetry.KindCounter,
		"Journal-tap events evicted before the trace correlator drained them (drop-oldest; the tap is shared with the forensics capturer).",
		nil, float64(t.corr.TapEvicted()))
}

// Health is a telemetry.HealthReporter: Down while a chain recently
// timed out mid-enforcement (posture seen, enforcement never
// acknowledged), Degraded while detections recently produced no
// posture at all, Healthy otherwise. The hold window keeps the state
// visible long enough for probes to observe it.
func (t *Tracker) Health() (telemetry.HealthState, string) {
	now := t.clock.Now()
	var enforce, last incompleteMark
	t.corr.View(func() { enforce, last = t.lastEnforceMiss, t.lastIncomplete })
	if m := enforce; !m.at.IsZero() && now.Sub(m.at) < t.healthHold {
		return telemetry.HealthDown, fmt.Sprintf(
			"incomplete detect→enforce chain: missing stage %s (device %s, trace %016x, %s ago)",
			m.stage, m.device, m.traceID, now.Sub(m.at).Round(time.Millisecond))
	}
	if m := last; !m.at.IsZero() && now.Sub(m.at) < t.healthHold {
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
// the tracker still waits on.
func (t *Tracker) Inflight() (n int) {
	t.corr.View(func() { n = t.open + t.corr.ParkedLen() })
	return n
}

// Incomplete reports the total chains counted incomplete.
func (t *Tracker) Incomplete() (n uint64) {
	t.corr.View(func() { n = t.incompleteCount })
	return n
}

// E2E exposes the end-to-end histogram (the watchdog windows it).
func (t *Tracker) E2E() *telemetry.Histogram { return t.mE2E }

// Rollup snapshots the cumulative end-to-end histogram. Together with
// Sync and Incomplete it makes the tracker a watchdog Source.
func (t *Tracker) Rollup() telemetry.HistogramRollup { return t.mE2E.Rollup() }

// Sync runs one tick's pass on the caller — a deterministic barrier
// for tests and for the watchdog's evaluation tick (so an evaluation
// judges every event that is already in the tap).
func (t *Tracker) Sync() { t.corr.Sync() }

// Close detaches the tracker from the correlator. Idempotent.
func (t *Tracker) Close() {
	t.corr.Detach((*observer)(t), false)
	t.reg.UnregisterCollector("slo-tracker")
}
