package forensics

import (
	"context"
	"testing"

	"iotsec/internal/journal"
	"iotsec/internal/telemetry"
)

// BenchmarkJournalAppendCapturerDetached is the baseline: the journal
// hot path with no incident capturer attached (identical to the SLO
// plane's no-tap baseline, re-measured here so the pair shares one
// run's noise floor).
func BenchmarkJournalAppendCapturerDetached(b *testing.B) {
	j := journal.New(8192)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Record(ctx, journal.TypeDeviceEvent, journal.Debug, "bench", "routine")
	}
}

// BenchmarkJournalAppendCapturerAttached measures the append hot path
// with a live capturer draining the tap. The workload is routine traffic
// (the overwhelming majority in production): the capturer drains and
// discards it without opening incidents.
func BenchmarkJournalAppendCapturerAttached(b *testing.B) {
	j := journal.New(8192)
	c := NewCapturer(j, Options{Registry: telemetry.NewRegistry()})
	defer c.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Record(ctx, journal.TypeDeviceEvent, journal.Debug, "bench", "routine")
	}
}

// BenchmarkStorePut measures the durable seal path: marshal + append +
// index of a 4-event incident. Off the hot path (incidents are rare),
// but bounded so a capture storm cannot stall the consumer goroutine
// for long.
func BenchmarkStorePut(b *testing.B) {
	store, err := OpenStore(b.TempDir(), StoreOptions{SegmentBytes: 4 << 20, MaxBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	inc := testIncident(1, "cam", 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc.TraceID = uint64(i + 1)
		inc.ID = IncidentID(inc.TraceID)
		if err := store.Put(inc); err != nil {
			b.Fatal(err)
		}
	}
}
