package forensics

import (
	"sort"
	"sync"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/resilience"
	"iotsec/internal/telemetry"
)

// tapBuffer is the journal subscription backlog, in events.
const tapBuffer = 2048

const (
	// maxOpen caps concurrently open incidents; opening events beyond
	// it are counted and dropped.
	maxOpen = 128
	// maxEvents caps events retained per incident; the chain head is
	// kept and the overflow counted as Truncated.
	maxEvents = 512
)

// Options parameterizes a Capturer.
type Options struct {
	// Store receives sealed incidents (nil = memory-only capture; the
	// ring-eviction guarantee still holds, restart durability doesn't).
	Store *Store
	// Shard names this capturer's shard in digests and fleet reports.
	Shard string
	// Quiet seals an open incident after this long without new trace
	// events (default 2s).
	Quiet time.Duration
	// SweepEvery is the quiet-period sweep cadence (default 250ms).
	SweepEvery time.Duration
	// Registry receives the iotsec_forensics_* collector (default
	// telemetry.Default).
	Registry *telemetry.Registry
	// Clock drives quiet-period sweeps (default the real clock).
	Clock resilience.Clock
	// SKUOf resolves a device name to its SKU for replay export (nil =
	// SKUs stay empty).
	SKUOf func(device string) string
}

// Capturer is the tail-based incident capture consumer: a
// resilience.Loop draining a drop-oldest journal subscription (wake =
// the tap, tick = the quiet-period sweep; the same attached-tap budget
// as the SLO tracker — one cursor bump per append on the hot path).
// Incident-opening events open an incident keyed by trace ID and
// backfill the trace's earlier events from the ring; subsequent events
// on an open trace are appended; a quiet period seals the incident and
// persists it to the store. Everything else — the overwhelming
// majority of traffic — never leaves the ring.
type Capturer struct {
	j     *journal.Journal
	sub   *journal.Subscription
	store *Store
	opt   Options
	clock resilience.Clock

	mu        sync.Mutex
	open      map[uint64]*openIncident
	captured  uint64 // incidents sealed
	events    uint64 // chain events captured
	openDrops uint64 // opening events dropped at maxOpen

	loop resilience.Loop
}

// openIncident is an incident still accumulating events.
type openIncident struct {
	inc     *Incident
	lastSeq uint64    // dedupe fence between ring backfill and live drain
	touched time.Time // last activity, by the capturer's clock
}

// NewCapturer attaches a capturer to j and starts its consumer.
func NewCapturer(j *journal.Journal, opt Options) *Capturer {
	if opt.Quiet <= 0 {
		opt.Quiet = 2 * time.Second
	}
	if opt.SweepEvery <= 0 {
		opt.SweepEvery = 250 * time.Millisecond
	}
	if opt.Clock == nil {
		opt.Clock = resilience.System
	}
	c := &Capturer{
		j:     j,
		sub:   j.Subscribe(tapBuffer),
		store: opt.Store,
		opt:   opt,
		clock: opt.Clock,
		open:  make(map[uint64]*openIncident),
	}
	c.register(opt.Registry)
	c.loop.Start(c.clock, opt.SweepEvery, c.sub.Wait(), c.pass)
	return c
}

// pass drains the tap and folds it, then (on a tick) seals the incidents
// whose quiet period elapsed. The drain happens under c.mu, so a pass
// on the loop and a Sync on a caller fold their batches in journal
// order — folded the other way round, the lastSeq fence would drop the
// older batch as duplicates.
func (c *Capturer) pass(sweep bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.foldLocked(c.sub.Drain())
	if sweep {
		c.sweepLocked(false)
	}
}

// Sync runs one tick's pass on the caller — the deterministic barrier
// tests pair with a fake clock.
func (c *Capturer) Sync() { c.pass(true) }

// Close stops the consumer, drains the subscription backlog, and
// force-seals every open incident into the store — the shutdown flush
// that makes in-flight incidents survive a restart. Idempotent.
func (c *Capturer) Close() {
	c.loop.Stop()
	c.sub.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.foldLocked(c.sub.Drain())
	c.sweepLocked(true)
}

// foldLocked folds drained events into open incidents.
func (c *Capturer) foldLocked(events []journal.Event) {
	if len(events) == 0 {
		return
	}
	now := c.clock.Now()
	for _, e := range events {
		if e.TraceID == 0 {
			continue // routine, untraced traffic stays ring-only
		}
		if oi, ok := c.open[e.TraceID]; ok {
			c.appendLocked(oi, e, now)
			continue
		}
		kind, opens := KindOf(e.Type)
		if !opens {
			continue
		}
		if len(c.open) >= maxOpen {
			c.openDrops++
			continue
		}
		c.openLocked(e, kind, now)
	}
}

// openLocked opens an incident for e's trace, backfilling the trace's
// earlier events still in the ring — the pin that beats eviction: the
// chain is copied out of the ring the moment it becomes interesting.
func (c *Capturer) openLocked(e journal.Event, kind string, now time.Time) {
	inc := &Incident{
		ID:      IncidentID(e.TraceID),
		TraceID: e.TraceID,
		Kind:    kind,
		Device:  e.Device,
		Shard:   c.opt.Shard,
	}
	oi := &openIncident{inc: inc, touched: now}
	// A re-opening trace seeds from its stored record first, so the
	// eventual re-seal supersedes the store with the union of old and
	// new chain events rather than clobbering the original capture.
	if c.store != nil {
		if prev, ok := c.store.Get(inc.ID); ok {
			for _, pe := range prev.Events {
				c.appendLocked(oi, pe, now)
			}
			inc.Truncated += prev.Truncated
		}
	}
	// Snapshot includes e itself (it reached the ring before the tap
	// woke us) plus anything earlier on the trace.
	for _, pe := range c.j.Snapshot(journal.Filter{TraceID: e.TraceID}) {
		c.appendLocked(oi, pe, now)
	}
	if oi.lastSeq < e.Seq { // e already evicted from the ring: keep it anyway
		c.appendLocked(oi, e, now)
	}
	if inc.Device == "" {
		inc.Device = e.Device
	}
	if inc.SKU == "" && inc.Device != "" && c.opt.SKUOf != nil {
		inc.SKU = c.opt.SKUOf(inc.Device)
	}
	c.open[e.TraceID] = oi
}

// appendLocked adds one event to an open incident (dedupe by seq).
func (c *Capturer) appendLocked(oi *openIncident, e journal.Event, now time.Time) {
	if e.Seq <= oi.lastSeq {
		return
	}
	oi.lastSeq = e.Seq
	oi.touched = now
	inc := oi.inc
	if e.Severity > inc.Severity {
		inc.Severity = e.Severity
	}
	if inc.Device == "" && e.Device != "" {
		inc.Device = e.Device
		if c.opt.SKUOf != nil {
			inc.SKU = c.opt.SKUOf(e.Device)
		}
	}
	if len(inc.Events) >= maxEvents {
		inc.Truncated++
		return
	}
	if len(inc.Events) == 0 {
		inc.OpenedAt = e.Wall
	}
	inc.Events = append(inc.Events, e)
	c.events++
}

// sweepLocked seals incidents whose quiet period elapsed (or all of
// them, when forced at shutdown).
func (c *Capturer) sweepLocked(force bool) {
	now := c.clock.Now()
	for trace, oi := range c.open {
		if !force && now.Sub(oi.touched) < c.opt.Quiet {
			continue
		}
		c.sealLocked(oi)
		delete(c.open, trace)
	}
}

// sealLocked finalizes and persists one incident.
func (c *Capturer) sealLocked(oi *openIncident) {
	inc := oi.inc
	inc.Complete = chainComplete(inc.Kind, inc.Events)
	if n := len(inc.Events); n > 0 {
		inc.ClosedAt = inc.Events[n-1].Wall
	} else {
		inc.ClosedAt = c.clock.Now()
	}
	c.captured++
	if c.store != nil {
		_ = c.store.Put(inc)
	}
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
	c.mu.Lock()
	for _, oi := range c.open {
		byID[oi.inc.ID] = oi.inc.Digest()
	}
	c.mu.Unlock()
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
	c.mu.Lock()
	for _, oi := range c.open {
		if oi.inc.ID == id {
			cp := *oi.inc
			cp.Events = append([]journal.Event(nil), oi.inc.Events...)
			c.mu.Unlock()
			return &cp, true
		}
	}
	c.mu.Unlock()
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
	c.mu.Lock()
	if oi, ok := c.open[traceID]; ok {
		for _, e := range oi.inc.Events {
			seen[e.Seq] = e
		}
	}
	c.mu.Unlock()
	if c.store != nil {
		if inc, ok := c.store.Get(IncidentID(traceID)); ok {
			for _, e := range inc.Events {
				seen[e.Seq] = e
			}
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
	c.mu.Lock()
	st := CapturerStats{
		Shard:     c.opt.Shard,
		Open:      len(c.open),
		Captured:  c.captured,
		Events:    c.events,
		OpenDrops: c.openDrops,
	}
	c.mu.Unlock()
	st.TapEvicted = c.sub.Evicted()
	st.TapPending = c.sub.Pending()
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
			"Journal tap events evicted while the capturer lagged.", nil, float64(st.TapEvicted))
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
