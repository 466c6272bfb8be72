package forensics

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iotsec/internal/journal"
)

// testIncident builds a sealed incident with n chain events.
func testIncident(trace uint64, device string, n int) *Incident {
	base := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	inc := &Incident{
		ID:       IncidentID(trace),
		TraceID:  trace,
		Kind:     KindAnomaly,
		Device:   device,
		Severity: journal.Warn,
		OpenedAt: base,
		ClosedAt: base.Add(time.Duration(n) * time.Millisecond),
	}
	for i := 0; i < n; i++ {
		inc.Events = append(inc.Events, journal.Event{
			Seq:      trace*100 + uint64(i+1),
			TraceID:  trace,
			Wall:     base.Add(time.Duration(i) * time.Millisecond),
			Type:     journal.TypeAnomaly,
			Severity: journal.Warn,
			Device:   device,
			Detail:   "chain event",
		})
	}
	return inc
}

// TestStorePutGetReopen: incidents written before a restart are served
// after reopening the same directory, and rotation resumes on the
// segment the previous process was appending to.
func TestStorePutGetReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := s.Put(testIncident(i, "cam", 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	for i := uint64(1); i <= 3; i++ {
		inc, ok := re.Get(IncidentID(i))
		if !ok {
			t.Fatalf("incident %d lost across reopen", i)
		}
		if len(inc.Events) != 4 {
			t.Fatalf("incident %d has %d events after reopen, want 4", i, len(inc.Events))
		}
	}
	st := re.Stats()
	if st.Incidents != 3 {
		t.Fatalf("Stats.Incidents = %d, want 3", st.Incidents)
	}
	if st.Segments != 1 {
		t.Fatalf("Stats.Segments = %d, want 1 (no rotation yet)", st.Segments)
	}
	// Rotation resumes: the reopened store appends to the same segment
	// rather than starting a fresh one.
	if err := re.Put(testIncident(4, "cam", 1)); err != nil {
		t.Fatal(err)
	}
	if got := re.Stats().Segments; got != 1 {
		t.Fatalf("append after reopen created segment count %d, want 1", got)
	}
}

// TestStoreRotationAndCap: segments rotate at SegmentBytes and the
// oldest are deleted once the directory exceeds MaxBytes — newest
// history wins, loss is counted, the active segment survives.
func TestStoreRotationAndCap(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{SegmentBytes: 2 << 10, MaxBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 64
	for i := uint64(1); i <= n; i++ {
		if err := s.Put(testIncident(i, "cam", 4)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Bytes > 8<<10+2<<10 { // one segment of slack while rotating
		t.Fatalf("store grew to %d bytes, cap is %d", st.Bytes, 8<<10)
	}
	if st.DroppedSegments == 0 || st.DroppedIncidents == 0 {
		t.Fatalf("expected eviction under cap, got %d segs / %d incidents dropped", st.DroppedSegments, st.DroppedIncidents)
	}
	// Newest must survive, oldest must be gone.
	if _, ok := s.Get(IncidentID(n)); !ok {
		t.Fatal("newest incident evicted — oldest-first eviction violated")
	}
	if _, ok := s.Get(IncidentID(1)); ok {
		t.Fatal("oldest incident survived a cap eviction that dropped segments")
	}
	if st.Incidents+int(st.DroppedIncidents) != n {
		t.Fatalf("retained %d + dropped %d != put %d", st.Incidents, st.DroppedIncidents, n)
	}
}

// TestStoreSupersede: re-putting an incident ID keeps only the latest
// record, across reopen too.
func TestStoreSupersede(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testIncident(7, "cam", 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testIncident(7, "cam", 5)); err != nil {
		t.Fatal(err)
	}
	if inc, _ := s.Get(IncidentID(7)); len(inc.Events) != 5 {
		t.Fatalf("live store kept %d events, want the superseding 5", len(inc.Events))
	}
	if got := len(s.Digests()); got != 1 {
		t.Fatalf("Digests lists %d records for one ID, want 1", got)
	}
	s.Close()

	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	inc, ok := re.Get(IncidentID(7))
	if !ok || len(inc.Events) != 5 {
		t.Fatalf("reopen kept %v/%d events, want the superseding 5", ok, len(inc.Events))
	}
}

// TestStoreCorruptLineTolerated: a torn final write (crash mid-append)
// must not fail the reopen or lose the parseable records around it.
func TestStoreCorruptLineTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testIncident(1, "cam", 3)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Tear the segment: a half-written JSON line at the end.
	seg := filepath.Join(dir, "incidents-00000.ndjson")
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"inc-torn","trace_id":99,"kind":"anom`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer re.Close()
	if _, ok := re.Get(IncidentID(1)); !ok {
		t.Fatal("intact record lost to a neighboring torn line")
	}
	if got := len(re.Digests()); got != 1 {
		t.Fatalf("Digests = %d records, want only the intact one", got)
	}
	// Appending after the torn line must start a fresh line — incident
	// 2 has to survive yet another reopen, not be concatenated onto the
	// torn record and lost with it.
	if err := re.Put(testIncident(2, "cam", 1)); err != nil {
		t.Fatal(err)
	}
	re.Close()
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(b), "\n") {
		t.Fatal("segment does not end in a newline after post-corruption append")
	}
	re2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if _, ok := re2.Get(IncidentID(2)); !ok {
		t.Fatal("record appended after a torn line was corrupted by it")
	}
}

// TestStoreHealsTornSegmentByAppending: reopening a segment with a torn
// tail appends one newline and rewrites nothing — the file is its old
// bytes plus "\n" — and every incident written before the tear is
// still served, after this reopen and the next.
func TestStoreHealsTornSegmentByAppending(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for trace := uint64(1); trace <= 5; trace++ {
		if err := s.Put(testIncident(trace, "cam", int(trace))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	seg := filepath.Join(dir, "incidents-00000.ndjson")
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"inc-torn","trace_id":99,"ki`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	torn, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	for reopen := 1; reopen <= 2; reopen++ {
		re, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatalf("reopen %d: %v", reopen, err)
		}
		for trace := uint64(1); trace <= 5; trace++ {
			if inc, ok := re.Get(IncidentID(trace)); !ok || len(inc.Events) != int(trace) {
				t.Fatalf("reopen %d: incident %d lost or cut (found %v)", reopen, trace, ok)
			}
		}
		re.Close()
		healed, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if want := string(torn) + "\n"; string(healed) != want {
			t.Fatalf("reopen %d: segment is %d bytes, want the torn %d plus one newline", reopen, len(healed), len(torn))
		}
	}
}
