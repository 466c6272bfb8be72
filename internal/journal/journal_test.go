package journal

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"iotsec/internal/telemetry"
)

func TestAppendAssignsSequenceAndTrace(t *testing.T) {
	j := New(16)
	ctx, span := telemetry.StartSpan(context.Background(), "test.root")
	j.Record(ctx, TypeAnomaly, Warn, "cam", "weird traffic")
	j.Record(ctx, TypePosture, Info, "cam", "isolate")
	span.End()
	j.Record(context.Background(), TypeAlert, Critical, "wemo", "untraced")

	events := j.Snapshot(Filter{})
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	if events[0].Seq != 1 || events[1].Seq != 2 || events[2].Seq != 3 {
		t.Fatalf("bad sequence numbers: %+v", events)
	}
	if events[0].TraceID == 0 || events[0].TraceID != events[1].TraceID {
		t.Fatalf("span-traced events should share a nonzero trace ID: %+v", events[:2])
	}
	if events[2].TraceID != 0 {
		t.Fatalf("background-context event should be untraced, got trace %d", events[2].TraceID)
	}
	if events[1].Mono < events[0].Mono {
		t.Fatalf("monotonic offsets went backwards: %v then %v", events[0].Mono, events[1].Mono)
	}
}

func TestRingEviction(t *testing.T) {
	j := New(8)
	for i := 0; i < 20; i++ {
		j.RecordTrace(uint64(i+1), TypeDeviceEvent, Debug, "d", fmt.Sprintf("e%d", i))
	}
	events := j.Snapshot(Filter{})
	if len(events) != 8 {
		t.Fatalf("ring should retain 8 events, got %d", len(events))
	}
	// Oldest retained is event 13 (seq 13), newest is 20.
	if events[0].Seq != 13 || events[7].Seq != 20 {
		t.Fatalf("wrong retained window: first seq %d last seq %d", events[0].Seq, events[7].Seq)
	}
	appended, _ := j.Stats()
	if appended != 20 {
		t.Fatalf("appended = %d, want 20", appended)
	}
}

func TestConcurrentWritersKeepTotalOrder(t *testing.T) {
	j := New(256)
	const writers = 8
	const each = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				j.RecordTrace(uint64(w+1), TypeDeviceEvent, Debug, fmt.Sprintf("dev%d", w), "x")
			}
		}(w)
	}
	wg.Wait()
	appended, _ := j.Stats()
	if appended != writers*each {
		t.Fatalf("appended = %d, want %d", appended, writers*each)
	}
	events := j.Snapshot(Filter{})
	if len(events) != 256 {
		t.Fatalf("retained %d, want 256", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("sequence gap at %d: %d -> %d", i, events[i-1].Seq, events[i].Seq)
		}
	}
}

func TestFilters(t *testing.T) {
	j := New(64)
	base := time.Now()
	j.RecordTrace(7, TypeAnomaly, Warn, "cam", "a")
	j.RecordTrace(7, TypePosture, Info, "cam", "b")
	j.RecordTrace(9, TypeAnomaly, Critical, "wemo", "c")
	j.RecordTrace(0, TypeDeviceEvent, Debug, "cam", "d")

	if got := j.Snapshot(Filter{TraceID: 7}); len(got) != 2 {
		t.Fatalf("trace filter: got %d, want 2", len(got))
	}
	if got := j.Snapshot(Filter{Device: "wemo"}); len(got) != 1 || got[0].Detail != "c" {
		t.Fatalf("device filter wrong: %+v", got)
	}
	if got := j.Snapshot(Filter{Type: TypeAnomaly}); len(got) != 2 {
		t.Fatalf("type filter: got %d, want 2", len(got))
	}
	if got := j.Snapshot(Filter{MinSeverity: Info}); len(got) != 3 {
		t.Fatalf("severity filter (info): got %d, want 3", len(got))
	}
	if got := j.Snapshot(Filter{MinSeverity: Warn}); len(got) != 2 {
		t.Fatalf("severity filter (warn): got %d, want 2", len(got))
	}
	if got := j.Snapshot(Filter{Since: base.Add(-time.Minute)}); len(got) != 4 {
		t.Fatalf("since filter (past): got %d, want 4", len(got))
	}
	if got := j.Snapshot(Filter{Since: time.Now().Add(time.Minute)}); len(got) != 0 {
		t.Fatalf("since filter (future): got %d, want 0", len(got))
	}
	if got := j.Snapshot(Filter{Limit: 2}); len(got) != 2 || got[1].Detail != "d" {
		t.Fatalf("limit filter wrong: %+v", got)
	}
}

// TestSubscribeDeliversAndCountsDropsWhenFull: a tap past its buffer
// loses events, the journal's drop total says how many, and Close is
// idempotent.
func TestSubscribeDeliversAndCountsDropsWhenFull(t *testing.T) {
	j := New(64)
	sub := j.Subscribe(2)
	j.RecordTrace(1, TypeAnomaly, Info, "d", "1")
	j.RecordTrace(1, TypeAnomaly, Info, "d", "2")
	j.RecordTrace(1, TypeAnomaly, Info, "d", "3") // buffer full → the oldest is evicted
	_, drops := j.Stats()
	if drops != 1 {
		t.Fatalf("drops = %d, want 1", drops)
	}
	got := sub.Drain()
	if len(got) != 2 || got[0].Detail != "2" || got[1].Detail != "3" {
		t.Fatalf("drained %+v, want events 2 and 3", got)
	}
	sub.Close()
	select {
	case <-sub.Done():
	default:
		t.Fatal("Done should be closed after Close")
	}
	sub.Close() // idempotent
}

func TestSeverityJSONAndParse(t *testing.T) {
	b, err := json.Marshal(Warn)
	if err != nil || string(b) != `"warn"` {
		t.Fatalf("marshal: %s %v", b, err)
	}
	for _, name := range []string{"debug", "info", "warn", "critical"} {
		sev, ok := ParseSeverity(name)
		if !ok || sev.String() != name {
			t.Fatalf("roundtrip %q failed", name)
		}
	}
	if _, ok := ParseSeverity("nope"); ok {
		t.Fatal("unknown severity should not parse")
	}
}

func TestHandlerSnapshotAndFilterParams(t *testing.T) {
	j := New(64)
	j.RecordTrace(42, TypeAnomaly, Warn, "cam", "a")
	j.RecordTrace(42, TypePosture, Info, "cam", "b")
	j.RecordTrace(5, TypeAnomaly, Debug, "wemo", "c")
	srv := httptest.NewServer(j.Handler())
	defer srv.Close()

	get := func(q string) SnapshotJSON {
		t.Helper()
		resp, err := http.Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", q, resp.Status)
		}
		var snap SnapshotJSON
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}

	if snap := get("?trace=42"); len(snap.Events) != 2 {
		t.Fatalf("trace=42: got %d events", len(snap.Events))
	}
	if snap := get("?device=wemo"); len(snap.Events) != 1 || snap.Events[0].Detail != "c" {
		t.Fatalf("device=wemo wrong: %+v", snap.Events)
	}
	if snap := get("?type=anomaly"); len(snap.Events) != 2 {
		t.Fatalf("type=anomaly: got %d events", len(snap.Events))
	}
	if snap := get("?sev=info"); len(snap.Events) != 2 {
		t.Fatalf("sev=info: got %d events", len(snap.Events))
	}
	if snap := get("?since=5m"); len(snap.Events) != 3 {
		t.Fatalf("since=5m: got %d events", len(snap.Events))
	}
	if snap := get("?limit=1"); len(snap.Events) != 1 {
		t.Fatalf("limit=1: got %d events", len(snap.Events))
	}
	if snap := get(""); snap.Appended != 3 {
		t.Fatalf("appended_total = %d, want 3", snap.Appended)
	}

	// Bad parameters are 400s.
	for _, q := range []string{"?trace=xyz", "?since=bogus", "?sev=loud", "?limit=-1"} {
		resp, err := http.Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestHandlerFollowStreamsBacklogAndLive(t *testing.T) {
	j := New(64)
	j.RecordTrace(1, TypeAnomaly, Warn, "cam", "backlog-1")
	srv := httptest.NewServer(j.Handler())
	defer srv.Close()

	ctx, cancelReq := context.WithCancel(context.Background())
	defer cancelReq()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"?follow=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}

	dec := json.NewDecoder(resp.Body)
	var first Event
	if err := dec.Decode(&first); err != nil || first.Detail != "backlog-1" {
		t.Fatalf("backlog event: %+v err=%v", first, err)
	}

	// A live append must arrive on the open stream.
	go func() {
		time.Sleep(10 * time.Millisecond)
		j.RecordTrace(2, TypePosture, Info, "cam", "live-1")
	}()
	var live Event
	if err := dec.Decode(&live); err != nil || live.Detail != "live-1" {
		t.Fatalf("live event: %+v err=%v", live, err)
	}
	if live.Seq <= first.Seq {
		t.Fatalf("live seq %d should follow backlog seq %d", live.Seq, first.Seq)
	}
}

func TestTimelineReconstructAndRender(t *testing.T) {
	events := []Event{
		{Seq: 3, TraceID: 9, Type: TypeFlowMod, Device: "wemo", Mono: 30},
		{Seq: 1, TraceID: 9, Type: TypeAnomaly, Device: "wemo", Severity: Warn, Mono: 10, Detail: "spike"},
		{Seq: 2, TraceID: 9, Type: TypePosture, Device: "wemo", Mono: 20},
		{Seq: 4, TraceID: 9, Type: TypeMboxReconfig, Device: "wemo", Mono: 40},
		{Seq: 5, TraceID: 8, Type: TypeAnomaly, Device: "cam", Mono: 50},
	}
	tl := Reconstruct(events, 9)
	if len(tl.Events) != 4 {
		t.Fatalf("got %d events, want 4", len(tl.Events))
	}
	for i := 1; i < len(tl.Events); i++ {
		if tl.Events[i].Seq < tl.Events[i-1].Seq {
			t.Fatal("timeline not sorted by sequence")
		}
	}
	if !tl.Complete() {
		t.Fatal("detect+policy+enforce timeline should be complete")
	}
	chain := tl.Chain()
	want := "anomaly(wemo) -> posture(wemo) -> flow-mod(wemo) -> mbox-reconfig(wemo)"
	if chain != want {
		t.Fatalf("chain = %q, want %q", chain, want)
	}
	rendered := tl.Render()
	if !strings.Contains(rendered, "complete detect->policy->enforce chain") ||
		!strings.Contains(rendered, "spike") {
		t.Fatalf("render missing pieces:\n%s", rendered)
	}

	// Incomplete chain: detection without enforcement.
	partial := Reconstruct(events, 8)
	if partial.Complete() {
		t.Fatal("single-anomaly timeline should be incomplete")
	}
}

func TestReconstructDevice(t *testing.T) {
	events := []Event{
		{Seq: 1, TraceID: 1, Type: TypeAnomaly, Device: "cam"},
		{Seq: 2, TraceID: 1, Type: TypePosture, Device: "cam"},
		{Seq: 3, TraceID: 2, Type: TypeAlert, Device: "cam"},
		{Seq: 4, TraceID: 3, Type: TypeAnomaly, Device: "wemo"},
		{Seq: 5, TraceID: 0, Type: TypeDeviceEvent, Device: "cam"}, // untraced → skipped
	}
	tls := ReconstructDevice(events, "cam")
	if len(tls) != 2 {
		t.Fatalf("got %d timelines, want 2", len(tls))
	}
	if tls[0].TraceID != 1 || tls[1].TraceID != 2 {
		t.Fatalf("timelines out of order: %d, %d", tls[0].TraceID, tls[1].TraceID)
	}
}

func BenchmarkJournalAppend(b *testing.B) {
	j := New(8192)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Record(ctx, TypeDeviceEvent, Debug, "bench", "event")
	}
}

func BenchmarkJournalAppendTraced(b *testing.B) {
	j := New(8192)
	ctx, span := telemetry.StartSpan(context.Background(), "bench.trace")
	defer span.End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Record(ctx, TypeDeviceEvent, Debug, "bench", "event")
	}
}
