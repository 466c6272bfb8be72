// Package journal is IoTSec's forensic event log: a bounded,
// lock-cheap ring of structured events covering the whole Figure 2
// loop — detected anomalies, IDS alerts, device events, FSM posture
// transitions, FLOW_MOD emission/application, µmbox boots and
// reconfigurations, and signature publishes/votes. Every event
// carries the trace ID of the causal chain it belongs to (threaded
// end-to-end via context.Context and internal/telemetry spans), a
// wall-clock timestamp and a monotonic offset, so a single sensor
// anomaly can be reconstructed into the exact enforcement it caused.
//
// The write path is one short mutex-guarded slot store (no
// allocation, and one cursor comparison per attached tap); the
// BenchmarkJournalAppend budget is < 100ns/op so hot paths can
// journal unconditionally.
package journal

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"iotsec/internal/telemetry"
)

// Type classifies an event.
type Type string

// Event types, one per observable stage of the detect → policy →
// controller → µmbox chain.
const (
	// TypeDeviceEvent is a raw device-emitted event entering the view.
	TypeDeviceEvent Type = "device-event"
	// TypeAnomaly is a behavioral-anomaly detection.
	TypeAnomaly Type = "anomaly"
	// TypeAlert is a signature (IDS) match.
	TypeAlert Type = "alert"
	// TypeViewChange is a committed state-variable change (the FSM
	// input transition).
	TypeViewChange Type = "view-change"
	// TypePosture is a recomputed posture applied to a device.
	TypePosture Type = "posture"
	// TypeFlowMod is a FLOW_MOD emitted southbound by the controller.
	TypeFlowMod Type = "flow-mod"
	// TypeFlowApplied is a FLOW_MOD applied by a switch agent (the far
	// side of the OpenFlow wire; proves the trace ID crossed it).
	TypeFlowApplied Type = "flow-applied"
	// TypeMboxBoot is a µmbox instance boot.
	TypeMboxBoot Type = "mbox-boot"
	// TypeMboxReconfig is a live µmbox pipeline reconfiguration.
	TypeMboxReconfig Type = "mbox-reconfig"
	// TypeSigPublish is a signature published to a repository.
	TypeSigPublish Type = "sig-publish"
	// TypeSigVote is a community vote on a signature.
	TypeSigVote Type = "sig-vote"
	// TypeSouthDown is a southbound session loss (either side of the
	// wire: an agent losing its controller, or the controller reaping
	// a dead switch session).
	TypeSouthDown Type = "southbound-down"
	// TypeSouthUp is a southbound session (re-)establishment.
	TypeSouthUp Type = "southbound-up"
	// TypeSouthReplay is an agent replaying events buffered while
	// disconnected after a re-handshake.
	TypeSouthReplay Type = "southbound-replay"
	// TypeSigrepoDown is a northbound (signature repository) session
	// loss on the gateway side.
	TypeSigrepoDown Type = "sigrepo-down"
	// TypeSigrepoUp is a northbound session (re-)establishment.
	TypeSigrepoUp Type = "sigrepo-up"
	// TypeSigrepoReplay covers northbound catch-up after a reconnect:
	// cursor-based re-delivery of cleared signatures missed during the
	// outage, and the durable publish/vote outbox draining.
	TypeSigrepoReplay Type = "sigrepo-replay"
	// TypeMboxPanic is a µmbox pipeline element panicking on a frame;
	// the pipeline recovered and dropped the frame instead of crashing
	// the gateway.
	TypeMboxPanic Type = "mbox-panic"
	// TypeSLOBurn is the SLO watchdog detecting sustained burn: the
	// windowed detect→enforce latency (or incomplete-chain rate)
	// exceeded the configured objective's error budget.
	TypeSLOBurn Type = "slo-burn"
	// TypeProfileLearned is a SKU behavior profile distilled from a
	// training window (or updated by a crowd fetch).
	TypeProfileLearned Type = "profile-learned"
	// TypeProfileEnforced is a device placed under (or refreshed
	// into) deny-by-default profile enforcement.
	TypeProfileEnforced Type = "profile-enforced"
	// TypeProfileViolation is live traffic deviating from an enforced
	// device's SKU profile (unauthorized service, address hop, rate
	// envelope breach).
	TypeProfileViolation Type = "profile-violation"
	// TypeRogueQuarantine is an unregistered MAC detected under
	// lockdown and cut off at the switch.
	TypeRogueQuarantine Type = "rogue-quarantine"
	// TypeCtrlFailover is a partition-local controller declared dead by
	// the deadman supervisor (the start of a recovery trace).
	TypeCtrlFailover Type = "controller-failover"
	// TypeCtrlRehomed is an orphaned partition re-assigned to a new home
	// (a surviving local controller, or the global controller in
	// fail-global mode) with its state rebuilt from checkpoint + journal
	// replay + flow-table readback.
	TypeCtrlRehomed Type = "partition-rehomed"
	// TypeCtrlRecovered closes a recovery trace: quarantines re-pushed,
	// state rebuilt, postures reconciled — the partition is protected
	// again. The detail carries the measured recovery duration.
	TypeCtrlRecovered Type = "recovery-complete"
)

// Severity ranks events for filtering.
type Severity uint8

// Severities, in ascending order.
const (
	Debug Severity = iota
	Info
	Warn
	Critical
)

// String renders the severity.
func (s Severity) String() string {
	switch s {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Critical:
		return "critical"
	default:
		return "unknown"
	}
}

// MarshalJSON renders severities as their names.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses a severity name (clients decoding /debug/journal
// responses need the round trip).
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	sev, ok := ParseSeverity(name)
	if !ok {
		return fmt.Errorf("journal: unknown severity %q", name)
	}
	*s = sev
	return nil
}

// ParseSeverity maps a name back to a Severity (ok=false on unknown).
func ParseSeverity(name string) (Severity, bool) {
	switch name {
	case "debug":
		return Debug, true
	case "info":
		return Info, true
	case "warn":
		return Warn, true
	case "critical":
		return Critical, true
	}
	return 0, false
}

// Event is one forensic record.
type Event struct {
	// Seq is the journal-assigned sequence number; within one journal
	// it is a total order consistent with causality of the emitting
	// call chain.
	Seq uint64 `json:"seq"`
	// TraceID links the event to the causal chain that produced it
	// (0 = emitted outside any trace).
	TraceID uint64 `json:"trace_id,omitempty"`
	// Wall is the wall-clock timestamp.
	Wall time.Time `json:"wall"`
	// Mono is the monotonic offset since the journal was created —
	// immune to wall-clock steps, so intervals between events are
	// trustworthy.
	Mono time.Duration `json:"mono_ns"`
	// Type classifies the event.
	Type Type `json:"type"`
	// Severity ranks it.
	Severity Severity `json:"severity"`
	// Device is the device the event concerns ("" when not
	// device-scoped, e.g. signature publishes carry the SKU here).
	Device string `json:"device,omitempty"`
	// Detail is a one-line human-readable description.
	Detail string `json:"detail,omitempty"`
}

// Journal is the bounded event ring. The zero value is not usable;
// call New (or use Default).
type Journal struct {
	start time.Time

	mu   sync.Mutex
	ring []Event
	pos  int
	full bool
	seq  uint64
	taps []*Subscription
	// dropped counts events evicted from taps whose consumers lagged.
	dropped uint64

	// ntaps mirrors len(taps) so the append fast path can skip the
	// wake-up scan with one atomic load.
	ntaps atomic.Int32
}

// New builds a journal retaining up to capacity events (values < 1
// default to 8192).
func New(capacity int) *Journal {
	if capacity < 1 {
		capacity = 8192
	}
	return &Journal{start: time.Now(), ring: make([]Event, capacity)}
}

// Default is the process-wide journal that instrumented packages
// record into and that cmd binaries expose at /debug/journal.
var Default = New(8192)

// The journal's own metrics are a scrape-time collector over Default
// rather than per-append counter increments: the append fast path
// stays within its <100ns budget, and the scrape sees exact totals
// (the sequence number is the append count).
func init() {
	telemetry.Default.RegisterCollector("journal", func(emit func(name string, kind telemetry.Kind, help string, labels telemetry.Labels, value float64)) {
		appended, drops := Default.Stats()
		emit("iotsec_journal_events_total", telemetry.KindCounter,
			"Events appended to the forensic journal.", nil, float64(appended))
		emit("iotsec_journal_tail_drops_total", telemetry.KindCounter,
			"Events evicted from lagging journal taps.", nil, float64(drops))
	})
}

// Record stamps and appends an event, deriving the trace ID from the
// span carried by ctx. This is the call instrumented code makes.
func (j *Journal) Record(ctx context.Context, t Type, sev Severity, device, detail string) {
	now := time.Now()
	e := Event{
		TraceID:  telemetry.TraceID(ctx),
		Wall:     now,
		Mono:     now.Sub(j.start),
		Type:     t,
		Severity: sev,
		Device:   device,
		Detail:   detail,
	}
	j.append(e)
}

// Record appends to the Default journal.
func Record(ctx context.Context, t Type, sev Severity, device, detail string) {
	Default.Record(ctx, t, sev, device, detail)
}

// RecordTrace appends an event with an explicit trace ID — for code
// on the far side of a wire protocol where the trace arrives in the
// decoded message rather than a context (e.g. switch agents applying
// a FLOW_MOD).
func (j *Journal) RecordTrace(traceID uint64, t Type, sev Severity, device, detail string) {
	now := time.Now()
	j.append(Event{
		TraceID:  traceID,
		Wall:     now,
		Mono:     now.Sub(j.start),
		Type:     t,
		Severity: sev,
		Device:   device,
		Detail:   detail,
	})
}

// RecordTrace appends to the Default journal.
func RecordTrace(traceID uint64, t Type, sev Severity, device, detail string) {
	Default.RecordTrace(traceID, t, sev, device, detail)
}

// append assigns the sequence number and stores the event.
func (j *Journal) append(e Event) {
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	j.ring[j.pos] = e
	j.pos++
	if j.pos == len(j.ring) {
		j.pos = 0
		j.full = true
	}
	if j.ntaps.Load() > 0 {
		for _, t := range j.taps {
			t.notify()
		}
	}
	j.mu.Unlock()
}

// Filter selects events. Zero-valued fields match everything.
type Filter struct {
	// TraceID restricts to one causal chain.
	TraceID uint64
	// Device restricts to one device.
	Device string
	// Type restricts to one event type.
	Type Type
	// Since drops events whose wall clock is before it.
	Since time.Time
	// Until drops events whose wall clock is after it (zero = no
	// upper bound), giving Since..Until range queries.
	Until time.Time
	// MinSeverity drops events below it.
	MinSeverity Severity
	// Limit keeps only the most recent N matches (0 = all retained).
	Limit int
}

// Matches applies the filter.
func (f Filter) Matches(e Event) bool {
	if f.TraceID != 0 && e.TraceID != f.TraceID {
		return false
	}
	if f.Device != "" && e.Device != f.Device {
		return false
	}
	if f.Type != "" && e.Type != f.Type {
		return false
	}
	if !f.Since.IsZero() && e.Wall.Before(f.Since) {
		return false
	}
	if !f.Until.IsZero() && e.Wall.After(f.Until) {
		return false
	}
	if e.Severity < f.MinSeverity {
		return false
	}
	return true
}

// Snapshot returns retained events matching f in causal (sequence)
// order, oldest first. With Limit set, only the most recent Limit
// matches are kept (still oldest-first).
func (j *Journal) Snapshot(f Filter) []Event {
	j.mu.Lock()
	size, start := j.pos, 0
	if j.full {
		size, start = len(j.ring), j.pos
	}
	// Sized by the matches, not the ring: a filtered snapshot of a full
	// ring is usually a handful of events. The scan collects ring
	// indices (4 B each) so that a filter matching most of the ring
	// copies its events once, not once per doubling, under the lock
	// every append takes.
	var hits []int32
	for i := 0; i < size; i++ {
		if idx := (start + i) % len(j.ring); f.Matches(j.ring[idx]) {
			hits = append(hits, int32(idx))
		}
	}
	out := make([]Event, len(hits))
	for k, idx := range hits {
		out[k] = j.ring[idx]
	}
	j.mu.Unlock()
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// Stats reports events appended since creation and events evicted
// from lagging taps (attached taps are brought up to date first, so
// the count does not wait for a slow consumer's next Drain). The
// sequence counter doubles as the append total.
func (j *Journal) Stats() (appended, tailDrops uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, t := range j.taps {
		t.reconcileLocked()
	}
	return j.seq, j.dropped
}

// Subscription is a bounded drop-oldest fan-out of the live event
// stream — the journal's live tap, behind the trace correlator
// (internal/correlate, which the online SLO plane and the forensics
// capturer both observe, so they share one) and
// /debug/journal?follow=1. When the consumer lags it keeps the newest
// events and evicts the OLDEST, like the southbound degradation ring
// and the sigrepo notify rings: for SLO accounting the recent past is what matters, and anything old
// enough to be evicted belongs to a chain that has already aged past
// the correlator's incomplete-chain timeout (the eviction is counted,
// so accounting loss is observable, never silent).
//
// A Subscription does not buffer its own copy of the stream: the
// journal's ring already holds every event, so the tap is just a
// cursor into it. The append-side cost is one subtraction-and-compare
// (plus a non-blocking wake on the empty→non-empty transition); no
// copy, no allocation. Drain copies the unread window out of the
// shared ring on the consumer's side of the lock. With no
// subscription attached the append fast path is untouched (one atomic
// load, same as before).
type Subscription struct {
	j *Journal

	// cursor/cap/limit/evicted are guarded by j.mu (the wake check runs
	// inside append's critical section; consumer-side accessors take the
	// same lock).
	cursor  uint64 // last sequence number delivered (or skipped)
	cap     uint64 // max unread backlog before oldest events are evicted
	limit   uint64 // Close fence: events past this seq are never delivered
	evicted uint64

	wake   chan struct{}
	closed chan struct{}
	once   sync.Once
}

// Subscribe attaches a drop-oldest tap retaining up to buffer pending
// events (values < 1 default to 1024; values beyond the journal's own
// ring are clamped to it, since overwritten slots are gone either
// way). Consumers loop on Wait and Drain; Close detaches.
func (j *Journal) Subscribe(buffer int) *Subscription {
	if buffer < 1 {
		buffer = 1024
	}
	j.mu.Lock()
	if buffer > len(j.ring) {
		buffer = len(j.ring)
	}
	s := &Subscription{
		j:      j,
		cursor: j.seq,
		cap:    uint64(buffer),
		limit:  ^uint64(0),
		wake:   make(chan struct{}, 1),
		closed: make(chan struct{}),
	}
	j.taps = append(j.taps, s)
	j.ntaps.Store(int32(len(j.taps)))
	j.mu.Unlock()
	return s
}

// notify is called with j.mu held after each append. The wake is only
// sent on the empty→non-empty transition: while events are already
// pending the consumer has an outstanding wake (or is mid-drain and
// will pick these up anyway), so a bursty stream pays one channel send
// per batch, not per event.
func (s *Subscription) notify() {
	if s.j.seq-s.cursor == 1 {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// reconcileLocked advances the cursor past events that exceed the
// subscription's backlog cap or that the journal ring has overwritten
// (a closed tap's fenced window can fall that far behind), counting
// them as evicted, and returns the end of the deliverable window.
// Called with j.mu held.
func (s *Subscription) reconcileLocked() (end uint64) {
	end = min(s.j.seq, s.limit)
	var floor uint64
	if end > s.cap {
		floor = end - s.cap
	}
	if ring := uint64(len(s.j.ring)); s.j.seq > ring {
		floor = min(max(floor, s.j.seq-ring), end)
	}
	if s.cursor < floor {
		s.evicted += floor - s.cursor
		s.j.dropped += floor - s.cursor
		s.cursor = floor
	}
	return end
}

// Drain removes and returns all pending events, oldest first (nil
// when empty). The unread window is copied out of the journal's ring;
// the lock is held for the copy, but the window is bounded by the
// subscription's buffer.
func (s *Subscription) Drain() []Event {
	s.j.mu.Lock()
	defer s.j.mu.Unlock()
	end := s.reconcileLocked()
	if end == s.cursor {
		return nil
	}
	out := make([]Event, 0, end-s.cursor)
	ring := s.j.ring
	for q := s.cursor + 1; q <= end; q++ {
		out = append(out, ring[int((q-1)%uint64(len(ring)))])
	}
	s.cursor = end
	return out
}

// Pending reports buffered, undrained events.
func (s *Subscription) Pending() int {
	s.j.mu.Lock()
	defer s.j.mu.Unlock()
	return int(s.reconcileLocked() - s.cursor)
}

// Evicted reports events dropped (oldest-first) to make room for
// newer ones while the consumer lagged.
func (s *Subscription) Evicted() uint64 {
	s.j.mu.Lock()
	defer s.j.mu.Unlock()
	s.reconcileLocked()
	return s.evicted
}

// Wait returns a channel that receives (at least) one wake-up after
// events become pending. Spurious wake-ups are possible; pair with
// Drain in a loop.
func (s *Subscription) Wait() <-chan struct{} { return s.wake }

// Done is closed when the subscription is detached.
func (s *Subscription) Done() <-chan struct{} { return s.closed }

// Close detaches the tap. Idempotent; pending events remain drainable.
func (s *Subscription) Close() {
	s.once.Do(func() {
		s.j.mu.Lock()
		for i, t := range s.j.taps {
			if t == s {
				s.j.taps = append(s.j.taps[:i], s.j.taps[i+1:]...)
				break
			}
		}
		s.j.ntaps.Store(int32(len(s.j.taps)))
		// Fence the cursor window: events appended after Close are
		// never delivered or counted as dropped, but the backlog
		// accumulated before it remains drainable.
		s.limit = s.j.seq
		s.reconcileLocked()
		s.j.mu.Unlock()
		close(s.closed)
	})
}
