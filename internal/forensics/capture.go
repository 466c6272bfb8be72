package forensics

import (
	"sort"
	"time"

	"iotsec/internal/correlate"
	"iotsec/internal/journal"
	"iotsec/internal/resilience"
	"iotsec/internal/telemetry"
)

const (
	// maxOpen caps concurrently open incidents; opening events beyond
	// it are counted and dropped.
	maxOpen = 128
	// maxEvents caps events retained per incident; the chain head is
	// kept and the overflow counted as Truncated.
	maxEvents = correlate.MaxEvents
)

// Options parameterizes a Capturer.
type Options struct {
	// Store receives sealed incidents (nil = memory-only capture; the
	// ring-eviction guarantee still holds, restart durability doesn't).
	Store *Store
	// Shard names this capturer's shard in digests and fleet reports.
	Shard string
	// Quiet seals an open incident after this long without new trace
	// events (default 2s); the sweep runs every Quiet/8.
	Quiet time.Duration
	// Registry receives the iotsec_forensics_* collector (default
	// telemetry.Default).
	Registry *telemetry.Registry
	// Clock drives quiet-period sweeps (default the real clock).
	Clock resilience.Clock
	// SKUOf resolves a device name to its SKU for replay export (nil =
	// SKUs stay empty).
	SKUOf func(device string) string
}

// Capturer is the tail-based incident capture plane, an observer of the
// journal's trace correlator (the SLO tracker is the other one: one
// tap, one chain table, one sweep between them). An incident-opening
// event opens an incident keyed by trace ID; the chain already holds
// the trace's earlier events, parked before anything opened it, so the
// precursors are pinned the moment the chain becomes interesting. Later
// events of the trace join the chain; a quiet period seals the incident
// and persists it to the store. Everything else — the overwhelming
// majority of traffic — never leaves the ring.
type Capturer struct {
	j     *journal.Journal
	corr  *correlate.Correlator
	store *Store
	opt   Options
	clock resilience.Clock

	// Guarded by the correlator's lock.
	open      int    // incidents held open
	captured  uint64 // incidents sealed
	events    uint64 // chain events captured
	openDrops uint64 // opening events dropped at maxOpen
}

// observer is the Capturer's side of the correlator.
type observer Capturer

// openIncident is what an open incident adds to its chain.
type openIncident struct {
	kind   string
	device string // the opening event's
	// prev is the stored record of a re-opening trace: the re-seal
	// supersedes it with the union of old and new chain events rather
	// than clobbering the original capture.
	prev *Incident
	// truncBase is the chain's truncation when the incident re-opened:
	// on a chain still alive since its earlier seal, prev counted it.
	truncBase int
}

// NewCapturer attaches a capturer to j's correlator.
func NewCapturer(j *journal.Journal, opt Options) *Capturer {
	if opt.Quiet <= 0 {
		opt.Quiet = 2 * time.Second
	}
	if opt.Clock == nil {
		opt.Clock = resilience.System
	}
	c := &Capturer{j: j, store: opt.Store, opt: opt, clock: opt.Clock}
	c.register(opt.Registry)
	c.corr = correlate.Attach(j, c.clock, (*observer)(c), opt.Quiet, opt.Quiet/8)
	return c
}

// Sync runs one tick's pass on the caller — the deterministic barrier
// tests pair with a fake clock.
func (c *Capturer) Sync() { c.corr.Sync() }

// Close drains the tap, force-seals every open incident into the store
// — the shutdown flush that makes in-flight incidents survive a
// restart — and detaches. Idempotent.
func (c *Capturer) Close() { c.corr.Detach((*observer)(c), true) }

// Opens: the incident-opening event types (KindOf).
func (o *observer) Opens(_ []journal.Event, e journal.Event) bool {
	_, opens := KindOf(e.Type)
	return opens
}

// Forget: a parked trace nothing opened was routine.
func (o *observer) Forget([]journal.Event) {}

// Fold opens an incident at an opening event (or counts it dropped at
// maxOpen) and keeps an open one from going quiet.
func (o *observer) Fold(ch *correlate.Chain, e journal.Event, i int, at time.Time) {
	c := (*Capturer)(o)
	if h := ch.Holds[o]; h != nil {
		h.Due = at.Add(c.opt.Quiet)
		if i >= 0 {
			c.events++
		}
		return
	}
	kind, opens := KindOf(e.Type)
	if !opens {
		return
	}
	if c.open >= maxOpen {
		c.openDrops++
		return
	}
	oi := &openIncident{kind: kind, device: e.Device}
	if c.store != nil {
		if prev, ok := c.store.Get(IncidentID(ch.TraceID)); ok {
			oi.prev, oi.truncBase = prev, ch.Truncated
		}
	}
	ch.Hold(o, &correlate.Hold{Due: at.Add(c.opt.Quiet), Data: oi})
	c.open++
	c.events += uint64(len(c.incident(ch, oi).Events))
}

// Expire seals a quiet (or flushed) incident and persists it.
func (o *observer) Expire(ch *correlate.Chain, h *correlate.Hold) {
	c := (*Capturer)(o)
	inc := c.incident(ch, h.Data.(*openIncident))
	inc.Complete = chainComplete(inc.Kind, inc.Events)
	if n := len(inc.Events); n > 0 {
		inc.ClosedAt = inc.Events[n-1].Wall
	} else {
		inc.ClosedAt = c.clock.Now()
	}
	c.open--
	c.captured++
	if c.store != nil {
		_ = c.store.Put(inc)
	}
}

// incident derives an open incident from its chain: the stored record
// it extends first, then the chain's events past it (deduplicated by
// sequence), capped at maxEvents with the overflow counted.
func (c *Capturer) incident(ch *correlate.Chain, oi *openIncident) *Incident {
	inc := &Incident{
		ID:       IncidentID(ch.TraceID),
		TraceID:  ch.TraceID,
		Kind:     oi.kind,
		Device:   oi.device,
		Shard:    c.opt.Shard,
		Severity: ch.Severity,
	}
	var last uint64
	add := func(e journal.Event) {
		if e.Seq <= last {
			return
		}
		last = e.Seq
		inc.Severity = max(inc.Severity, e.Severity)
		if inc.Device == "" {
			inc.Device = e.Device
		}
		if len(inc.Events) >= maxEvents {
			inc.Truncated++
			return
		}
		inc.Events = append(inc.Events, e)
	}
	if oi.prev != nil {
		for _, e := range oi.prev.Events {
			add(e)
		}
		inc.Truncated += oi.prev.Truncated
	}
	for _, e := range ch.Events {
		add(e)
	}
	inc.Truncated += ch.Truncated - oi.truncBase
	if len(inc.Events) > 0 {
		inc.OpenedAt = inc.Events[0].Wall
	}
	if inc.Device != "" && c.opt.SKUOf != nil {
		inc.SKU = c.opt.SKUOf(inc.Device)
	}
	return inc
}

// eachOpen calls fn with every open incident, under the correlator's lock.
func (c *Capturer) eachOpen(fn func(*Incident)) {
	c.corr.View(func() {
		c.corr.Each((*observer)(c), func(ch *correlate.Chain, h *correlate.Hold) {
			fn(c.incident(ch, h.Data.(*openIncident)))
		})
	})
}

// Digests lists open and stored incidents, newest-opened first. An
// incident both open and stored (re-opened trace) surfaces once, the
// open view winning.
func (c *Capturer) Digests() []Digest {
	byID := make(map[string]Digest)
	if c.store != nil {
		for _, d := range c.store.Digests() {
			byID[d.ID] = d
		}
	}
	c.eachOpen(func(inc *Incident) { byID[inc.ID] = inc.Digest() })
	out := make([]Digest, 0, len(byID))
	for _, d := range byID {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].OpenedAt.Equal(out[j].OpenedAt) {
			return out[i].OpenedAt.After(out[j].OpenedAt)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Get returns one incident by ID, open incidents first.
func (c *Capturer) Get(id string) (*Incident, bool) {
	var open *Incident
	c.eachOpen(func(inc *Incident) {
		if inc.ID == id {
			open = inc
		}
	})
	if open != nil {
		return open, true
	}
	if c.store != nil {
		return c.store.Get(id)
	}
	return nil, false
}

// TraceEvents returns every event this shard knows for a trace — the
// live ring, open incidents, and the durable store, merged and
// deduplicated by sequence. This is the per-shard feed behind
// cross-shard timeline assembly.
func (c *Capturer) TraceEvents(traceID uint64) []journal.Event {
	if traceID == 0 {
		return nil
	}
	seen := make(map[uint64]journal.Event)
	for _, e := range c.j.Snapshot(journal.Filter{TraceID: traceID}) {
		seen[e.Seq] = e
	}
	if inc, ok := c.Get(IncidentID(traceID)); ok { // an open one includes its stored record
		for _, e := range inc.Events {
			seen[e.Seq] = e
		}
	}
	out := make([]journal.Event, 0, len(seen))
	for _, e := range seen {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// CapturerStats is the capture accounting snapshot.
type CapturerStats struct {
	Shard      string      `json:"shard,omitempty"`
	Open       int         `json:"open"`
	Captured   uint64      `json:"captured_total"`
	Events     uint64      `json:"events_captured_total"`
	OpenDrops  uint64      `json:"open_drops_total"`
	TapEvicted uint64      `json:"tap_evicted_total"`
	TapPending int         `json:"tap_pending"`
	StoreStats *StoreStats `json:"store,omitempty"`
}

// Stats snapshots the capturer (and its store, when attached).
func (c *Capturer) Stats() CapturerStats {
	st := CapturerStats{Shard: c.opt.Shard}
	c.corr.View(func() {
		st.Open, st.Captured, st.Events, st.OpenDrops = c.open, c.captured, c.events, c.openDrops
	})
	st.TapEvicted = c.corr.TapEvicted()
	st.TapPending = c.corr.TapPending()
	if c.store != nil {
		ss := c.store.Stats()
		st.StoreStats = &ss
	}
	return st
}

// register exposes the capture metrics as a scrape-time collector.
func (c *Capturer) register(reg *telemetry.Registry) {
	if reg == nil {
		reg = telemetry.Default
	}
	reg.RegisterCollector("forensics", func(emit func(name string, kind telemetry.Kind, help string, labels telemetry.Labels, value float64)) {
		st := c.Stats()
		emit("iotsec_forensics_open_incidents", telemetry.KindGauge,
			"Incidents currently accumulating events.", nil, float64(st.Open))
		emit("iotsec_forensics_incidents_total", telemetry.KindCounter,
			"Incidents sealed by the capturer.", nil, float64(st.Captured))
		emit("iotsec_forensics_events_total", telemetry.KindCounter,
			"Chain events pinned into incidents.", nil, float64(st.Events))
		emit("iotsec_forensics_open_drops_total", telemetry.KindCounter,
			"Opening events dropped at the open-incident cap.", nil, float64(st.OpenDrops))
		emit("iotsec_forensics_tap_evicted_total", telemetry.KindCounter,
			"Journal tap events evicted while the trace correlator lagged (the tap is shared with the SLO tracker).", nil, float64(st.TapEvicted))
		if st.StoreStats != nil {
			emit("iotsec_forensics_store_bytes", telemetry.KindGauge,
				"Incident store size on disk.", nil, float64(st.StoreStats.Bytes))
			emit("iotsec_forensics_store_segments", telemetry.KindGauge,
				"Incident store segment files.", nil, float64(st.StoreStats.Segments))
			emit("iotsec_forensics_store_incidents", telemetry.KindGauge,
				"Incidents retained in the store.", nil, float64(st.StoreStats.Incidents))
		}
	})
}
