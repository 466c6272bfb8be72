// Package forensics is the incident plane: it turns the bounded
// in-memory journal ring into durable, queryable, replayable incident
// records. A tail-based capturer (a journal.Subscription consumer,
// the same attached-tap pattern as the online SLO tracker) watches
// the live event stream for incident-opening events — anomalies,
// profile violations, rogue quarantines, SLO burns, controller
// failovers — and pins the *entire* causal chain of the trace into a
// size-capped, segment-rotated NDJSON store on disk before ring
// eviction can lose it. Routine traffic never leaves the ring.
//
// On top of the captured incidents sit an indexed query surface
// (/debug/incidents, mboxctl incidents), a cross-shard assembly path
// (fleet aggregators merge per-shard events for one trace into a
// single causal timeline), and a replay exporter: any incident can be
// exported as a self-contained scenario JSON that iotsim -replay
// re-drives through the real enforcement path — the mechanism behind
// "every discovered chain becomes a regression scenario".
package forensics

import (
	"fmt"
	"time"

	"iotsec/internal/journal"
)

// Incident kinds, named after the journal event type that opens them.
const (
	KindAnomaly          = "anomaly"
	KindProfileViolation = "profile-violation"
	KindRogueQuarantine  = "rogue-quarantine"
	KindSLOBurn          = "slo-burn"
	KindFailover         = "controller-failover"
)

// KindOf maps an incident-opening journal event type to its incident
// kind (ok=false for routine event types, which never open incidents).
func KindOf(t journal.Type) (string, bool) {
	switch t {
	case journal.TypeAnomaly:
		return KindAnomaly, true
	case journal.TypeProfileViolation:
		return KindProfileViolation, true
	case journal.TypeRogueQuarantine:
		return KindRogueQuarantine, true
	case journal.TypeSLOBurn:
		return KindSLOBurn, true
	case journal.TypeCtrlFailover:
		return KindFailover, true
	}
	return "", false
}

// IncidentID derives the stable incident identifier from a trace ID.
// One trace is one incident, so the mapping is deterministic: the
// same chain captured on two shards (or re-captured after a restart)
// gets the same ID and merges instead of duplicating.
func IncidentID(traceID uint64) string {
	return fmt.Sprintf("inc-%016x", traceID)
}

// Incident is one captured causal chain: every journal event sharing
// the trace, plus the classification the capturer derived from them.
type Incident struct {
	// ID is IncidentID(TraceID).
	ID string `json:"id"`
	// TraceID is the causal chain the incident pins.
	TraceID uint64 `json:"trace_id"`
	// Kind names the opening event class (anomaly, profile-violation,
	// rogue-quarantine, slo-burn, controller-failover).
	Kind string `json:"kind"`
	// Device is the device the opening event concerned ("" for
	// device-less chains, e.g. a shard-wide failover).
	Device string `json:"device,omitempty"`
	// SKU is the device's SKU when the capturer could resolve it
	// (replay needs it to rebuild an equivalent device).
	SKU string `json:"sku,omitempty"`
	// Shard names the reporting shard (cross-shard assembly keys).
	Shard string `json:"shard,omitempty"`
	// Severity is the maximum severity observed across the chain.
	Severity journal.Severity `json:"severity"`
	// OpenedAt is the wall clock of the chain's first captured event.
	OpenedAt time.Time `json:"opened_at"`
	// ClosedAt is when the capturer sealed the incident (quiet period
	// elapsed or forced flush). Zero while still open.
	ClosedAt time.Time `json:"closed_at,omitempty"`
	// Complete reports the chain closed its loop: detect→policy→enforce
	// for detection kinds, failover→rehomed→recovered for failovers.
	Complete bool `json:"complete"`
	// Truncated counts chain events dropped beyond the per-incident
	// event cap (capture loss is surfaced, never silent).
	Truncated int `json:"truncated,omitempty"`
	// Events is the captured chain, sequence-ordered.
	Events []journal.Event `json:"events"`
}

// Digest is the compact incident summary that travels in fleet shard
// reports and list views — everything except the event bodies.
type Digest struct {
	ID        string           `json:"id"`
	TraceID   uint64           `json:"trace_id"`
	Kind      string           `json:"kind"`
	Device    string           `json:"device,omitempty"`
	SKU       string           `json:"sku,omitempty"`
	Shard     string           `json:"shard,omitempty"`
	Severity  journal.Severity `json:"severity"`
	OpenedAt  time.Time        `json:"opened_at"`
	ClosedAt  time.Time        `json:"closed_at,omitempty"`
	Complete  bool             `json:"complete"`
	Truncated int              `json:"truncated,omitempty"`
	Events    int              `json:"events"`
}

// Digest summarizes the incident.
func (in *Incident) Digest() Digest {
	return Digest{
		ID:        in.ID,
		TraceID:   in.TraceID,
		Kind:      in.Kind,
		Device:    in.Device,
		SKU:       in.SKU,
		Shard:     in.Shard,
		Severity:  in.Severity,
		OpenedAt:  in.OpenedAt,
		ClosedAt:  in.ClosedAt,
		Complete:  in.Complete,
		Truncated: in.Truncated,
		Events:    len(in.Events),
	}
}

// Open reports whether the incident is still accumulating events.
func (d Digest) Open() bool { return d.ClosedAt.IsZero() }

// Timeline renders the incident as a journal timeline (chain and
// report rendering reuse the journal's own machinery).
func (in *Incident) Timeline() *journal.Timeline {
	return journal.Reconstruct(in.Events, in.TraceID)
}

// chainComplete answers the forensic question "did this chain close
// its loop" (not the SLO tracker's stricter "is the latency sample
// final", journal.SLOMissing): failover chains must carry the failover
// sequence, detection chains must close the Figure 2 loop.
func chainComplete(kind string, events []journal.Event) bool {
	if kind == KindFailover {
		return journal.FailoverClosed(events)
	}
	return journal.LoopClosed(events)
}
