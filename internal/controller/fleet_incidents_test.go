package controller

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"iotsec/internal/forensics"
	"iotsec/internal/journal"
)

// fakeIncidentSource is a canned shard feed.
type fakeIncidentSource struct {
	digests []forensics.Digest
	events  map[uint64][]journal.Event
}

func (f *fakeIncidentSource) Digests() []forensics.Digest { return f.digests }
func (f *fakeIncidentSource) TraceEvents(traceID uint64) []journal.Event {
	return f.events[traceID]
}

// TestFleetIncidentsMergesLiveSources: every shard's live source
// merges into one fleet view, shard names stamped, newest-opened
// first.
func TestFleetIncidentsMergesLiveSources(t *testing.T) {
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	agg := NewFleetAggregator(0)
	agg.AttachIncidentSource("shard-a", &fakeIncidentSource{
		digests: []forensics.Digest{
			{ID: forensics.IncidentID(1), TraceID: 1, Kind: forensics.KindAnomaly, OpenedAt: base},
		},
	})
	agg.AttachIncidentSource("shard-b", &fakeIncidentSource{
		digests: []forensics.Digest{
			{ID: forensics.IncidentID(2), TraceID: 2, Kind: forensics.KindProfileViolation, OpenedAt: base.Add(time.Minute)},
		},
	})

	ds := agg.FleetIncidents()
	if len(ds) != 2 {
		t.Fatalf("fleet view has %d incidents, want 2", len(ds))
	}
	if ds[0].ID != forensics.IncidentID(2) {
		t.Fatalf("first incident %s, want the newest-opened", ds[0].ID)
	}
	if ds[0].Shard != "shard-b" || ds[1].Shard != "shard-a" {
		t.Fatalf("shard stamps wrong: %s/%s", ds[0].Shard, ds[1].Shard)
	}
}

// TestFleetAssembleTimelinePullsAllShards: timeline assembly pulls
// per-shard events and merges them into one causally ordered story.
func TestFleetAssembleTimelinePulls(t *testing.T) {
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	agg := NewFleetAggregator(0)
	agg.AttachIncidentSource("shard-a", &fakeIncidentSource{events: map[uint64][]journal.Event{
		7: {
			{Seq: 100, TraceID: 7, Wall: base, Type: journal.TypeAnomaly, Device: "cam"},
			{Seq: 101, TraceID: 7, Wall: base.Add(time.Millisecond), Type: journal.TypePosture, Device: "cam"},
		},
	}})
	agg.AttachIncidentSource("shard-b", &fakeIncidentSource{events: map[uint64][]journal.Event{
		7: {
			{Seq: 2, TraceID: 7, Wall: base.Add(2 * time.Millisecond), Type: journal.TypeFlowMod, Device: "cam"},
		},
	}})
	agg.AttachIncidentSource("shard-idle", &fakeIncidentSource{})

	tl := agg.AssembleTimeline(7)
	if len(tl.Events) != 3 {
		t.Fatalf("assembled %d events, want 3", len(tl.Events))
	}
	if len(tl.Shards) != 2 {
		t.Fatalf("contributing shards %v, want 2", tl.Shards)
	}
	if tl.Events[0].Type != journal.TypeAnomaly || tl.Events[2].Type != journal.TypeFlowMod {
		t.Fatalf("merge order wrong: %s", tl.Chain())
	}
}

// TestFleetIncidentsHandler: /debug/fleet/incidents serves the merged
// digest list, and ?trace= the assembled timeline.
func TestFleetIncidentsHandler(t *testing.T) {
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	agg := NewFleetAggregator(0)
	agg.AttachIncidentSource("shard-a", &fakeIncidentSource{
		digests: []forensics.Digest{{ID: forensics.IncidentID(4), TraceID: 4, Kind: forensics.KindAnomaly, OpenedAt: base}},
		events: map[uint64][]journal.Event{
			4: {{Seq: 1, TraceID: 4, Wall: base, Type: journal.TypeAnomaly, Device: "cam"}},
		},
	})
	h := agg.IncidentsHandler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/fleet/incidents", nil))
	var list FleetIncidentsJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("list response: %v", err)
	}
	if list.Total != 1 || len(list.Incidents) != 1 {
		t.Fatalf("list total=%d len=%d, want 1/1", list.Total, len(list.Incidents))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/fleet/incidents?trace=4", nil))
	var tl forensics.FleetTimeline
	if err := json.Unmarshal(rec.Body.Bytes(), &tl); err != nil {
		t.Fatalf("timeline response: %v", err)
	}
	if tl.TraceID != 4 || len(tl.Events) != 1 || tl.Events[0].Shard != "shard-a" {
		t.Fatalf("timeline wrong: %+v", tl)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/fleet/incidents?trace=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bad trace param returned %d, want 400", rec.Code)
	}
}
