package journal

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestSubscribeDeliversInOrder: a tap sees every append, oldest first,
// and Drain empties it.
func TestSubscribeDeliversInOrder(t *testing.T) {
	j := New(64)
	sub := j.Subscribe(16)
	defer sub.Close()

	for i := 0; i < 5; i++ {
		j.RecordTrace(uint64(i+1), TypeAnomaly, Info, "d", fmt.Sprintf("e%d", i))
	}
	select {
	case <-sub.Wait():
	case <-time.After(time.Second):
		t.Fatal("Wait never woke after appends")
	}
	got := sub.Drain()
	if len(got) != 5 {
		t.Fatalf("drained %d events, want 5", len(got))
	}
	for i, e := range got {
		if e.TraceID != uint64(i+1) {
			t.Fatalf("event %d has trace %d, want %d (out of order)", i, e.TraceID, i+1)
		}
	}
	if sub.Pending() != 0 {
		t.Fatalf("Pending = %d after Drain, want 0", sub.Pending())
	}
	if sub.Drain() != nil {
		t.Fatal("second Drain must return nil")
	}
}

// TestSubscribeDropOldest: when the consumer lags past the buffer, the
// OLDEST events are evicted (and counted), the newest retained.
func TestSubscribeDropOldest(t *testing.T) {
	j := New(64)
	sub := j.Subscribe(4)
	defer sub.Close()

	for i := 1; i <= 10; i++ {
		j.RecordTrace(uint64(i), TypeAnomaly, Info, "d", "e")
	}
	if ev := sub.Evicted(); ev != 6 {
		t.Fatalf("Evicted = %d, want 6", ev)
	}
	got := sub.Drain()
	if len(got) != 4 {
		t.Fatalf("drained %d events, want 4", len(got))
	}
	for i, e := range got {
		if want := uint64(7 + i); e.TraceID != want {
			t.Fatalf("event %d has trace %d, want %d (newest must survive)", i, e.TraceID, want)
		}
	}
}

// TestSubscribeCloseDetaches: Close is idempotent, closes Done, stops
// delivery, and leaves already-buffered events drainable.
func TestSubscribeCloseDetaches(t *testing.T) {
	j := New(64)
	sub := j.Subscribe(8)
	j.Record(context.Background(), TypeAnomaly, Info, "d", "before close")

	sub.Close()
	sub.Close() // idempotent
	select {
	case <-sub.Done():
	default:
		t.Fatal("Done not closed after Close")
	}

	j.Record(context.Background(), TypeAnomaly, Info, "d", "after close")
	got := sub.Drain()
	if len(got) != 1 || got[0].Detail != "before close" {
		t.Fatalf("drained %v, want only the pre-close event", got)
	}
}

// TestSubscribersIndependent: taps coexist; detaching one leaves the
// other delivering.
func TestSubscribersIndependent(t *testing.T) {
	j := New(64)
	other := j.Subscribe(8)
	sub := j.Subscribe(8)
	defer sub.Close()

	j.Record(context.Background(), TypeAnomaly, Info, "d", "both")
	select {
	case <-other.Wait():
	case <-time.After(time.Second):
		t.Fatal("first tap missed the event")
	}
	if sub.Pending() != 1 {
		t.Fatalf("tap Pending = %d, want 1", sub.Pending())
	}
	sub.Drain()

	other.Close()
	j.Record(context.Background(), TypeAnomaly, Info, "d", "tap only")
	if sub.Pending() != 1 {
		t.Fatalf("tap Pending = %d after the other tap closed, want 1", sub.Pending())
	}
}

// BenchmarkJournalAppendNoTap is the baseline hot path with no
// subscriber of any kind attached: the <100ns, zero-alloc budget the
// instrumented packages rely on. The SLO plane must not change this —
// with no tap the append fast path is one extra atomic load.
func BenchmarkJournalAppendNoTap(b *testing.B) {
	j := New(8192)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Record(ctx, TypeDeviceEvent, Debug, "bench", "event")
	}
}

// BenchmarkJournalAppendWithTap measures the same append with an
// attached (undrained) tap: the cost of the SLO plane on the hot path.
// Budget: ≤5% over the no-tap baseline; still zero allocations (the
// tap ring is preallocated and evicts in place).
func BenchmarkJournalAppendWithTap(b *testing.B) {
	j := New(8192)
	sub := j.Subscribe(4096)
	defer sub.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Record(ctx, TypeDeviceEvent, Debug, "bench", "event")
	}
}

// BenchmarkJournalAppendWithDrainedTap pairs the tap with a draining
// consumer, the steady state the tracker runs in.
func BenchmarkJournalAppendWithDrainedTap(b *testing.B) {
	j := New(8192)
	sub := j.Subscribe(4096)
	defer sub.Close()
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-sub.Wait():
				sub.Drain()
			}
		}
	}()
	defer close(stop)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Record(ctx, TypeDeviceEvent, Debug, "bench", "event")
	}
}
