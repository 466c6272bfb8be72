package correlate_test

import (
	"runtime"
	"testing"
	"time"

	"iotsec/internal/forensics"
	"iotsec/internal/journal"
	"iotsec/internal/resilience"
	"iotsec/internal/slo"
	"iotsec/internal/telemetry"
)

// TestPlanesShareOneLoop: a tracker and a capturer built on their own
// against one journal attach to its one correlator — one loop between
// them, restarted rather than doubled when the capturer asks for a
// shorter sweep — and the last to close stops it.
func TestPlanesShareOneLoop(t *testing.T) {
	j := journal.New(64)
	before := runtime.NumGoroutine()
	tr := slo.NewTracker(j, slo.Options{Registry: telemetry.NewRegistry()})
	c := forensics.NewCapturer(j, forensics.Options{Registry: telemetry.NewRegistry()})
	if added := runtime.NumGoroutine() - before; added != 1 {
		t.Fatalf("tracker and capturer run %d goroutines, want the one loop they share", added)
	}
	j.RecordTrace(7, journal.TypeAnomaly, journal.Warn, "cam", "shared")
	tr.Sync()
	if st := c.Stats(); st.Open != 1 || tr.Inflight() != 1 {
		t.Fatalf("one anomaly: capturer open=%d, tracker in flight=%d, want 1 and 1", st.Open, tr.Inflight())
	}
	tr.Close()
	c.Close()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after both closed", runtime.NumGoroutine()-before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParkingAllocatesNothingPerEvent: a device event per request is
// the data plane's traffic, so parking one — and pushing out the oldest
// once the park is full — must not allocate; what remains is the drain's
// one slice per batch.
func TestParkingAllocatesNothingPerEvent(t *testing.T) {
	j := journal.New(8192)
	clk := resilience.NewFakeClock(time.Unix(1000, 0))
	tr := slo.NewTracker(j, slo.Options{Registry: telemetry.NewRegistry(), Clock: clk})
	defer tr.Close()
	trace := uint64(1)
	batch := func() {
		for i := 0; i < 1000; i++ {
			j.RecordTrace(trace, journal.TypeDeviceEvent, journal.Debug, "cam", "command: STATUS")
			trace++
		}
		tr.Sync()
	}
	for i := 0; i < 10; i++ { // fill the park past ParkedCap first
		batch()
	}
	if allocs := testing.AllocsPerRun(20, batch); allocs > 50 {
		t.Fatalf("%v allocations per 1,000 parked device events, want next to none", allocs)
	}
}
