package correlate_test

import (
	"sync"
	"time"

	"iotsec/internal/forensics"
	"iotsec/internal/journal"
	"iotsec/internal/resilience"
	"iotsec/internal/telemetry"
)

// The oracles: the SLO tracker and the forensics capturer as they were
// when each ran its own tap, trace table and sweep — copied with their
// metrics and folding logic intact, without their loops (the
// differential test drives them with pass) and without their health,
// scrape and query surfaces, which the comparison does not read.

// oracleTapBuffer stands in for both planes' tap sizes (4,096 and
// 2,048 events); the test journal's ring clamps every tap to itself.
const oracleTapBuffer = 4096

type oracleOpener struct {
	device   string
	start    time.Duration
	deadline time.Time
}

type oracleChain struct {
	device   string
	benign   bool
	start    time.Duration
	stages   map[journal.Type]time.Duration
	deadline time.Time
}

type oracleTracker struct {
	sub          *journal.Subscription
	clock        resilience.Clock
	chainTimeout time.Duration

	mStage       *telemetry.HistogramVec
	mE2E         *telemetry.Histogram
	mIncomplete  *telemetry.CounterVec
	mUnescalated *telemetry.Counter
	mCompleted   *telemetry.Counter

	mu     sync.Mutex
	chains map[uint64]*oracleChain
	order  []uint64
	parked *resilience.Recent[uint64, oracleOpener]
}

func newOracleTracker(j *journal.Journal, reg *telemetry.Registry, clock resilience.Clock, timeout time.Duration) *oracleTracker {
	t := &oracleTracker{
		sub:          j.Subscribe(oracleTapBuffer),
		clock:        clock,
		chainTimeout: timeout,
		chains:       make(map[uint64]*oracleChain),
		parked:       resilience.NewRecent[uint64, oracleOpener](4096),
	}
	t.mStage = reg.NewHistogramVec("iotsec_mttr_stage_seconds", "stage", telemetry.LatencyBuckets, "stage")
	t.mE2E = reg.NewHistogram("iotsec_mttr_e2e_seconds", "e2e", telemetry.LatencyBuckets)
	t.mIncomplete = reg.NewCounterVec("iotsec_mttr_incomplete_total", "incomplete", "missing_stage")
	t.mUnescalated = reg.NewCounter("iotsec_mttr_unescalated_total", "unescalated")
	t.mCompleted = reg.NewCounter("iotsec_mttr_complete_total", "complete")
	return t
}

func (t *oracleTracker) pass(sweep bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.sub.Drain() {
		t.handleLocked(e)
	}
	if sweep {
		t.sweepLocked()
	}
}

func (t *oracleTracker) handleLocked(e journal.Event) {
	if e.TraceID == 0 {
		return
	}
	switch e.Type {
	case journal.TypeDeviceEvent:
		if _, open := t.chains[e.TraceID]; open {
			return
		}
		if _, parked := t.parked.Get(e.TraceID); parked {
			return
		}
		if t.parked.Put(e.TraceID, oracleOpener{
			device:   e.Device,
			start:    e.Mono,
			deadline: t.clock.Now().Add(t.chainTimeout),
		}) {
			t.mUnescalated.Inc()
		}
	case journal.TypeAnomaly, journal.TypeAlert:
		if c, ok := t.chainLocked(e.TraceID); ok {
			c.benign = false
			return
		}
		t.openLocked(e.TraceID, &oracleChain{
			device:   e.Device,
			start:    e.Mono,
			deadline: t.clock.Now().Add(t.chainTimeout),
		})
	case journal.TypePosture:
		t.stageLocked(e, "")
	case journal.TypeFlowMod:
		t.stageLocked(e, journal.TypePosture)
	case journal.TypeFlowApplied:
		t.stageLocked(e, journal.TypeFlowMod)
		t.maybeCompleteLocked(e.TraceID)
	case journal.TypeMboxReconfig:
		t.stageLocked(e, journal.TypePosture)
		t.maybeCompleteLocked(e.TraceID)
	}
}

func (t *oracleTracker) openLocked(traceID uint64, c *oracleChain) {
	c.stages = make(map[journal.Type]time.Duration, 4)
	t.chains[traceID] = c
	t.order = append(t.order, traceID)
}

func (t *oracleTracker) chainLocked(traceID uint64) (*oracleChain, bool) {
	if c, ok := t.chains[traceID]; ok {
		return c, true
	}
	o, ok := t.parked.Get(traceID)
	if !ok {
		return nil, false
	}
	t.parked.Delete(traceID)
	c := &oracleChain{device: o.device, benign: true, start: o.start, deadline: o.deadline}
	t.openLocked(traceID, c)
	return c, true
}

func (t *oracleTracker) stageLocked(e journal.Event, pred journal.Type) {
	stage := e.Type
	c, ok := t.chainLocked(e.TraceID)
	if !ok {
		return
	}
	if _, seen := c.stages[stage]; seen {
		return
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
		d = 0
	}
	t.mStage.With(string(stage)).Observe(d.Seconds())
}

func (t *oracleTracker) maybeCompleteLocked(traceID uint64) {
	c, ok := t.chains[traceID]
	if !ok {
		return
	}
	if _, ok := c.stages[journal.TypeMboxReconfig]; !ok {
		return
	}
	_, flowMod := c.stages[journal.TypeFlowMod]
	_, applied := c.stages[journal.TypeFlowApplied]
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

func (t *oracleTracker) sweepLocked() {
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
		missing := oracleMissingStage(c)
		if c.benign && missing == journal.TypePosture {
			t.mUnescalated.Inc()
			delete(t.chains, id)
			continue
		}
		t.mIncomplete.With(string(missing)).Inc()
		delete(t.chains, id)
	}
	t.order = keep
}

func oracleMissingStage(c *oracleChain) journal.Type {
	if _, ok := c.stages[journal.TypePosture]; !ok {
		return journal.TypePosture
	}
	_, flowMod := c.stages[journal.TypeFlowMod]
	_, applied := c.stages[journal.TypeFlowApplied]
	if flowMod && !applied {
		return journal.TypeFlowApplied
	}
	if _, ok := c.stages[journal.TypeMboxReconfig]; !ok {
		return journal.TypeMboxReconfig
	}
	return journal.TypeFlowApplied
}

func (t *oracleTracker) dropLocked(traceID uint64) {
	delete(t.chains, traceID)
	for i, id := range t.order {
		if id == traceID {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}

const (
	oracleMaxOpen   = 128
	oracleMaxEvents = 512
)

type oracleIncident struct {
	inc     *forensics.Incident
	lastSeq uint64
	touched time.Time
}

type oracleCapturer struct {
	j     *journal.Journal
	sub   *journal.Subscription
	store *forensics.Store
	quiet time.Duration
	clock resilience.Clock

	mu        sync.Mutex
	open      map[uint64]*oracleIncident
	openDrops uint64
	reopened  uint64 // incidents that extended a stored record
}

func newOracleCapturer(j *journal.Journal, store *forensics.Store, clock resilience.Clock, quiet time.Duration) *oracleCapturer {
	return &oracleCapturer{
		j:     j,
		sub:   j.Subscribe(oracleTapBuffer / 2),
		store: store,
		quiet: quiet,
		clock: clock,
		open:  make(map[uint64]*oracleIncident),
	}
}

func (c *oracleCapturer) pass(sweep bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.foldLocked(c.sub.Drain())
	if sweep {
		c.sweepLocked(false)
	}
}

func (c *oracleCapturer) close() {
	c.sub.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.foldLocked(c.sub.Drain())
	c.sweepLocked(true)
}

func (c *oracleCapturer) foldLocked(events []journal.Event) {
	if len(events) == 0 {
		return
	}
	now := c.clock.Now()
	for _, e := range events {
		if e.TraceID == 0 {
			continue
		}
		if oi, ok := c.open[e.TraceID]; ok {
			c.appendLocked(oi, e, now)
			continue
		}
		kind, opens := forensics.KindOf(e.Type)
		if !opens {
			continue
		}
		if len(c.open) >= oracleMaxOpen {
			c.openDrops++
			continue
		}
		c.openLocked(e, kind, now)
	}
}

func (c *oracleCapturer) openLocked(e journal.Event, kind string, now time.Time) {
	inc := &forensics.Incident{
		ID:      forensics.IncidentID(e.TraceID),
		TraceID: e.TraceID,
		Kind:    kind,
		Device:  e.Device,
	}
	oi := &oracleIncident{inc: inc, touched: now}
	if prev, ok := c.store.Get(inc.ID); ok {
		c.reopened++
		for _, pe := range prev.Events {
			c.appendLocked(oi, pe, now)
		}
		inc.Truncated += prev.Truncated
	}
	for _, pe := range c.j.Snapshot(journal.Filter{TraceID: e.TraceID}) {
		c.appendLocked(oi, pe, now)
	}
	if oi.lastSeq < e.Seq {
		c.appendLocked(oi, e, now)
	}
	c.open[e.TraceID] = oi
}

func (c *oracleCapturer) appendLocked(oi *oracleIncident, e journal.Event, now time.Time) {
	if e.Seq <= oi.lastSeq {
		return
	}
	oi.lastSeq = e.Seq
	oi.touched = now
	inc := oi.inc
	if e.Severity > inc.Severity {
		inc.Severity = e.Severity
	}
	if len(inc.Events) >= oracleMaxEvents {
		inc.Truncated++
		return
	}
	if len(inc.Events) == 0 {
		inc.OpenedAt = e.Wall
	}
	inc.Events = append(inc.Events, e)
}

func (c *oracleCapturer) sweepLocked(force bool) {
	now := c.clock.Now()
	for trace, oi := range c.open {
		if !force && now.Sub(oi.touched) < c.quiet {
			continue
		}
		inc := oi.inc
		inc.Complete = oracleChainComplete(inc.Kind, inc.Events)
		if n := len(inc.Events); n > 0 {
			inc.ClosedAt = inc.Events[n-1].Wall
		} else {
			inc.ClosedAt = now
		}
		_ = c.store.Put(inc)
		delete(c.open, trace)
	}
}

func oracleChainComplete(kind string, events []journal.Event) bool {
	if kind != forensics.KindFailover {
		var detect, policy, enforce bool
		for _, e := range events {
			switch journal.Stage(e.Type) {
			case "detect":
				detect = true
			case "policy":
				policy = true
			case "controller", "mbox":
				enforce = true
			}
		}
		return detect && policy && enforce
	}
	want := []journal.Type{journal.TypeCtrlFailover, journal.TypeCtrlRehomed, journal.TypeCtrlRecovered}
	i := 0
	for _, e := range events {
		if i < len(want) && e.Type == want[i] {
			i++
		}
	}
	return i == len(want)
}
