package controller

import (
	"net/http"
	"sort"
	"sync"
	"time"

	"iotsec/internal/forensics"
	"iotsec/internal/journal"
	"iotsec/internal/telemetry"
)

// IncidentSource is what a shard exposes to the fleet incident plane:
// its incident digests (pushed alongside rollups) and, on demand, the
// full per-shard event set for one trace (pulled during cross-shard
// assembly). forensics.Capturer implements it.
type IncidentSource interface {
	Digests() []forensics.Digest
	TraceEvents(traceID uint64) []journal.Event
}

// fleetIncidents is the aggregator's incident-plane state, attached
// lazily so aggregators that never see incidents pay nothing.
type fleetIncidents struct {
	mu      sync.Mutex
	digests map[string][]forensics.Digest // by source: last pushed set
	sources map[string]IncidentSource     // by source: live pull handle
}

func (f *FleetAggregator) incidents() *fleetIncidents {
	f.incOnce.Do(func() {
		f.inc = &fleetIncidents{
			digests: make(map[string][]forensics.Digest),
			sources: make(map[string]IncidentSource),
		}
	})
	return f.inc
}

// AttachIncidentSource registers a shard's live incident feed for
// pull-based timeline assembly (and digest listing when the shard
// has not pushed yet).
func (f *FleetAggregator) AttachIncidentSource(source string, src IncidentSource) {
	in := f.incidents()
	in.mu.Lock()
	in.sources[source] = src
	in.mu.Unlock()
}

// ReportIncidents replaces one shard's pushed digest set — the
// incident side-channel of the shard rollup push.
func (f *FleetAggregator) ReportIncidents(source string, digests []forensics.Digest) {
	in := f.incidents()
	in.mu.Lock()
	in.digests[source] = append([]forensics.Digest(nil), digests...)
	in.mu.Unlock()
}

// FleetIncidents merges every shard's digests into the fleet view,
// newest-opened first. A shard with a live source is read live;
// otherwise its last pushed set is used. The same incident captured
// by two shards (one chain, two journals) surfaces once per shard —
// the shard column is part of the story.
func (f *FleetAggregator) FleetIncidents() []forensics.Digest {
	in := f.incidents()
	in.mu.Lock()
	merged := make(map[string][]forensics.Digest, len(in.digests)+len(in.sources))
	for src, ds := range in.digests {
		merged[src] = ds
	}
	live := make(map[string]IncidentSource, len(in.sources))
	for src, s := range in.sources {
		live[src] = s
	}
	in.mu.Unlock()
	for src, s := range live {
		merged[src] = s.Digests()
	}
	var out []forensics.Digest
	for src, ds := range merged {
		for _, d := range ds {
			if d.Shard == "" {
				d.Shard = src
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].OpenedAt.Equal(out[j].OpenedAt) {
			return out[i].OpenedAt.After(out[j].OpenedAt)
		}
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].Shard < out[j].Shard
	})
	return out
}

// AssembleTimeline pulls every attached shard's events for one trace
// and merges them into a single causal fleet timeline — the
// cross-shard forensic story (a chain crossing a partition re-homing
// spans the dead shard's capture and the survivor's journal; here it
// becomes one record).
func (f *FleetAggregator) AssembleTimeline(traceID uint64) *forensics.FleetTimeline {
	in := f.incidents()
	in.mu.Lock()
	live := make(map[string]IncidentSource, len(in.sources))
	for src, s := range in.sources {
		live[src] = s
	}
	in.mu.Unlock()
	byShard := make(map[string][]journal.Event, len(live))
	for src, s := range live {
		if events := s.TraceEvents(traceID); len(events) > 0 {
			byShard[src] = events
		}
	}
	return forensics.AssembleFleetTimeline(traceID, byShard)
}

// FleetIncidentsJSON is the /debug/fleet/incidents list shape.
type FleetIncidentsJSON struct {
	TakenAt   time.Time          `json:"taken_at"`
	Total     int                `json:"total"`
	Incidents []forensics.Digest `json:"incidents"`
}

// IncidentsHandler serves the fleet incident index (mount at
// /debug/fleet/incidents): digests merged across shards, or with
// trace=<id> the assembled cross-shard timeline.
func (f *FleetAggregator) IncidentsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		traceID, err := journal.ParseTrace(req.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if traceID != 0 {
			telemetry.WriteJSON(w, f.AssembleTimeline(traceID))
			return
		}
		ds := f.FleetIncidents()
		telemetry.WriteJSON(w, &FleetIncidentsJSON{TakenAt: time.Now(), Total: len(ds), Incidents: ds})
	})
}
