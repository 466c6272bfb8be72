package controller

import (
	"maps"
	"net/http"
	"sort"
	"time"

	"iotsec/internal/forensics"
	"iotsec/internal/journal"
	"iotsec/internal/telemetry"
)

// IncidentSource is what a shard exposes to the fleet incident plane,
// read live by the aggregator: its incident digests, and the full
// per-shard event set for one trace (pulled during cross-shard
// assembly). forensics.Capturer implements it.
type IncidentSource interface {
	Digests() []forensics.Digest
	TraceEvents(traceID uint64) []journal.Event
}

// AttachIncidentSource registers a shard's live incident feed, read
// for digest listing and for timeline assembly.
func (f *FleetAggregator) AttachIncidentSource(source string, src IncidentSource) {
	f.incMu.Lock()
	defer f.incMu.Unlock()
	if f.incSources == nil {
		f.incSources = make(map[string]IncidentSource)
	}
	f.incSources[source] = src
}

// liveSources copies the attached sources out from under the lock.
func (f *FleetAggregator) liveSources() map[string]IncidentSource {
	f.incMu.Lock()
	defer f.incMu.Unlock()
	return maps.Clone(f.incSources)
}

// FleetIncidents merges every shard's live digests into the fleet
// view, newest-opened first. The same incident captured by two shards
// (one chain, two journals) surfaces once per shard — the shard
// column is part of the story.
func (f *FleetAggregator) FleetIncidents() []forensics.Digest {
	var out []forensics.Digest
	for src, s := range f.liveSources() {
		for _, d := range s.Digests() {
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
	live := f.liveSources()
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
