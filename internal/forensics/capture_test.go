package forensics

import (
	"context"
	"fmt"
	"testing"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/resilience"
	"iotsec/internal/telemetry"
)

// newTestCapturer wires a capturer to a private journal and registry
// under a frozen clock; tests drive it with Sync + Advance.
func newTestCapturer(t *testing.T, j *journal.Journal, opt Options) (*Capturer, *resilience.FakeClock) {
	t.Helper()
	clock := resilience.NewFakeClock(time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC))
	opt.Clock = clock
	opt.Registry = telemetry.NewRegistry()
	c := NewCapturer(j, opt)
	t.Cleanup(c.Close)
	return c, clock
}

// driveChain journals a complete detect→policy→enforce chain on trace.
func driveChain(j *journal.Journal, trace uint64, device string) {
	j.RecordTrace(trace, journal.TypeAnomaly, journal.Warn, device, "rate anomaly")
	j.RecordTrace(trace, journal.TypePosture, journal.Info, device, "posture quarantine")
	j.RecordTrace(trace, journal.TypeFlowMod, journal.Info, device, "drop rule")
	j.RecordTrace(trace, journal.TypeMboxReconfig, journal.Info, device, "pipeline swap")
}

// TestCaptureOpensAndSeals: an anomaly opens an incident, the chain
// accumulates, the quiet period seals it into the store, and the
// sealed record reports a complete loop.
func TestCaptureOpensAndSeals(t *testing.T) {
	j := journal.New(256)
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c, clock := newTestCapturer(t, j, Options{Store: store, Shard: "shard-a"})

	driveChain(j, 42, "cam")
	c.Sync()
	if st := c.Stats(); st.Open != 1 || st.Captured != 0 {
		t.Fatalf("after chain: open=%d captured=%d, want 1/0 (quiet period not elapsed)", st.Open, st.Captured)
	}

	clock.Advance(3 * time.Second)
	c.Sync()
	st := c.Stats()
	if st.Open != 0 || st.Captured != 1 {
		t.Fatalf("after quiet period: open=%d captured=%d, want 0/1", st.Open, st.Captured)
	}
	inc, ok := store.Get(IncidentID(42))
	if !ok {
		t.Fatal("sealed incident not in the store")
	}
	if inc.Kind != KindAnomaly || inc.Device != "cam" || inc.Shard != "shard-a" {
		t.Fatalf("incident classified as %s/%s/%s, want anomaly/cam/shard-a", inc.Kind, inc.Device, inc.Shard)
	}
	if len(inc.Events) != 4 {
		t.Fatalf("captured %d events, want the full 4-event chain", len(inc.Events))
	}
	if !inc.Complete {
		t.Fatal("detect→policy→enforce chain not marked complete")
	}
	if inc.Severity != journal.Warn {
		t.Fatalf("severity %s, want the chain max (warn)", inc.Severity)
	}
}

// TestCaptureBackfillsFromRing: events journaled on a trace BEFORE the
// incident-opening event (the device-event that led to the anomaly)
// are backfilled from the ring when the incident opens.
func TestCaptureBackfillsFromRing(t *testing.T) {
	j := journal.New(256)
	c, clock := newTestCapturer(t, j, Options{})

	j.RecordTrace(7, journal.TypeDeviceEvent, journal.Debug, "wemo", "precursor reading")
	j.RecordTrace(7, journal.TypeViewChange, journal.Debug, "wemo", "context shift")
	c.Sync() // neither opens an incident
	if st := c.Stats(); st.Open != 0 {
		t.Fatalf("routine trace events opened %d incidents", st.Open)
	}

	j.RecordTrace(7, journal.TypeProfileViolation, journal.Warn, "wemo", "unauthorized service")
	c.Sync()
	inc, ok := c.Get(IncidentID(7))
	if !ok {
		t.Fatal("violation did not open an incident")
	}
	if len(inc.Events) != 3 {
		t.Fatalf("open incident has %d events, want 3 (2 backfilled + opener)", len(inc.Events))
	}
	if inc.Events[0].Type != journal.TypeDeviceEvent {
		t.Fatalf("first event is %s, want the backfilled device-event", inc.Events[0].Type)
	}
	if inc.Kind != KindProfileViolation {
		t.Fatalf("kind %s, want profile-violation", inc.Kind)
	}
	_ = clock
}

// TestCaptureSurvivesRingEviction is the point of the subsystem: a
// chain pinned into an incident outlives the journal ring overwriting
// every one of its events.
func TestCaptureSurvivesRingEviction(t *testing.T) {
	j := journal.New(32) // deliberately tiny ring, like iotsecd -journal-cap 32
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c, clock := newTestCapturer(t, j, Options{Store: store})

	driveChain(j, 99, "cam")
	c.Sync() // chain pinned into the open incident

	// Flood the ring with routine traffic until the chain is evicted.
	for i := 0; i < 100; i++ {
		j.Record(context.Background(), journal.TypeDeviceEvent, journal.Debug, "thermostat", "routine")
	}
	if left := j.Snapshot(journal.Filter{TraceID: 99}); len(left) != 0 {
		t.Fatalf("test setup: %d chain events still in the ring, want 0 (raise the flood)", len(left))
	}

	clock.Advance(3 * time.Second)
	c.Sync()
	inc, ok := store.Get(IncidentID(99))
	if !ok {
		t.Fatal("incident lost with the ring")
	}
	if len(inc.Events) != 4 || !inc.Complete {
		t.Fatalf("captured %d events (complete=%v), want the full 4-event chain despite eviction", len(inc.Events), inc.Complete)
	}
}

// TestCaptureRoutineStaysRingOnly: traced but non-incident chains (a
// normal device-event → view-change tick) never become incidents.
func TestCaptureRoutineStaysRingOnly(t *testing.T) {
	j := journal.New(256)
	c, clock := newTestCapturer(t, j, Options{})
	for trace := uint64(1); trace <= 20; trace++ {
		j.RecordTrace(trace, journal.TypeDeviceEvent, journal.Debug, "cam", "routine")
		j.RecordTrace(trace, journal.TypeViewChange, journal.Debug, "cam", "routine")
	}
	c.Sync()
	clock.Advance(3 * time.Second)
	c.Sync()
	if st := c.Stats(); st.Open != 0 || st.Captured != 0 {
		t.Fatalf("routine traffic produced open=%d captured=%d incidents", st.Open, st.Captured)
	}
}

// TestCaptureMaxOpenDrops: opening events beyond MaxOpen are counted
// and dropped, never block.
func TestCaptureMaxOpenDrops(t *testing.T) {
	j := journal.New(256)
	c, _ := newTestCapturer(t, j, Options{MaxOpen: 2})
	for trace := uint64(1); trace <= 5; trace++ {
		j.RecordTrace(trace, journal.TypeAnomaly, journal.Warn, "cam", "burst")
	}
	c.Sync()
	st := c.Stats()
	if st.Open != 2 {
		t.Fatalf("open=%d, want the MaxOpen cap of 2", st.Open)
	}
	if st.OpenDrops != 3 {
		t.Fatalf("OpenDrops=%d, want 3 (loss surfaced, never silent)", st.OpenDrops)
	}
}

// TestCaptureMaxEventsTruncates: a chain longer than MaxEvents keeps
// its head and counts the overflow.
func TestCaptureMaxEventsTruncates(t *testing.T) {
	j := journal.New(256)
	c, clock := newTestCapturer(t, j, Options{MaxEvents: 5})
	j.RecordTrace(3, journal.TypeAnomaly, journal.Warn, "cam", "opener")
	for i := 0; i < 10; i++ {
		j.RecordTrace(3, journal.TypeFlowMod, journal.Info, "cam", fmt.Sprintf("rule %d", i))
	}
	c.Sync()
	_ = clock
	inc, ok := c.Get(IncidentID(3))
	if !ok {
		t.Fatal("incident not captured")
	}
	if len(inc.Events) != 5 {
		t.Fatalf("kept %d events, want the MaxEvents cap of 5", len(inc.Events))
	}
	if inc.Truncated != 6 {
		t.Fatalf("Truncated=%d, want 6", inc.Truncated)
	}
	if inc.Events[0].Detail != "opener" {
		t.Fatal("truncation dropped the chain head; it must keep the oldest events")
	}
}

// TestCaptureCloseFlushes: Close force-seals open incidents into the
// store — the shutdown path that makes in-flight chains survive a
// restart.
func TestCaptureCloseFlushes(t *testing.T) {
	j := journal.New(256)
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c, _ := newTestCapturer(t, j, Options{Store: store})
	driveChain(j, 5, "cam")
	c.Close() // no quiet period elapsed
	inc, ok := store.Get(IncidentID(5))
	if !ok {
		t.Fatal("open incident lost at shutdown")
	}
	if len(inc.Events) != 4 {
		t.Fatalf("flushed %d events, want 4", len(inc.Events))
	}
}

// TestTraceEventsMergesRingOpenAndStore: the per-shard assembly feed
// unions all three views and dedupes by sequence.
func TestTraceEventsMergesRingOpenAndStore(t *testing.T) {
	j := journal.New(32)
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c, clock := newTestCapturer(t, j, Options{Store: store})

	// Sealed chain: evicted from the ring, lives only in the store.
	driveChain(j, 11, "cam")
	c.Sync()
	clock.Advance(3 * time.Second)
	c.Sync()
	for i := 0; i < 100; i++ {
		j.Record(context.Background(), journal.TypeDeviceEvent, journal.Debug, "x", "flood")
	}
	c.Sync()
	clock.Advance(3 * time.Second)
	c.Sync()

	// Re-activity on the same trace: new events live in ring + a fresh
	// open incident; the stored record holds the original four.
	j.RecordTrace(11, journal.TypeAnomaly, journal.Warn, "cam", "recurrence")
	c.Sync()

	events := c.TraceEvents(11)
	if len(events) != 5 {
		t.Fatalf("TraceEvents merged %d events, want 5 (4 stored + 1 live)", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatal("TraceEvents not in sequence order")
		}
	}
	if c.TraceEvents(0) != nil {
		t.Fatal("trace 0 must return nothing (untraced events are not a chain)")
	}
}

// TestCaptureDigestsOpenWins: an incident both stored and re-opened
// surfaces once, with the open (live) view winning.
func TestCaptureDigestsOpenWins(t *testing.T) {
	j := journal.New(256)
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c, clock := newTestCapturer(t, j, Options{Store: store})

	driveChain(j, 8, "cam")
	c.Sync()
	clock.Advance(3 * time.Second)
	c.Sync() // sealed

	j.RecordTrace(8, journal.TypeAnomaly, journal.Critical, "cam", "recurrence")
	c.Sync() // re-opened

	ds := c.Digests()
	if len(ds) != 1 {
		t.Fatalf("Digests lists %d records for one trace, want 1", len(ds))
	}
	if !ds[0].Open() {
		t.Fatal("open view must win over the stored record")
	}
	if ds[0].Severity != journal.Critical {
		t.Fatalf("digest severity %s, want the live critical", ds[0].Severity)
	}
}

// TestCaptureLoopSealsWithoutSync drives the capturer through its own
// loop only — no Sync barrier: the tap's wake opens the incident, and
// the sweep ticker, which exists once NewCapturer has returned, sees
// the clock advance past the quiet period and seals it.
func TestCaptureLoopSealsWithoutSync(t *testing.T) {
	j := journal.New(256)
	c, clock := newTestCapturer(t, j, Options{Quiet: 2 * time.Second})

	waitStats := func(what string, cond func(CapturerStats) bool) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for !cond(c.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s: %+v", what, c.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	driveChain(j, 77, "cam")
	waitStats("the wake to pin the chain", func(st CapturerStats) bool { return st.Open == 1 && st.Events == 4 })
	clock.Advance(2 * time.Second)
	waitStats("the tick to seal it", func(st CapturerStats) bool { return st.Open == 0 && st.Captured == 1 })
}
