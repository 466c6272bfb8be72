package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSlowSpanHookFiresRegardlessOfSampling arms a threshold on a
// heavily-sampled store and verifies every slow span reaches the hook,
// sampled or not.
func TestSlowSpanHookFiresRegardlessOfSampling(t *testing.T) {
	st := NewSpanStore(16, 1000) // only 1 in 1000 root spans sampled

	var mu sync.Mutex
	var seen []FinishedSpan
	st.SetSlowThreshold(time.Nanosecond, func(fs FinishedSpan) {
		mu.Lock()
		seen = append(seen, fs)
		mu.Unlock()
	})

	// First root is sampled, second is not; both exceed 1ns.
	for i := 0; i < 2; i++ {
		_, sp := st.StartSpan(context.Background(), "slow.op")
		time.Sleep(time.Microsecond)
		sp.End()
	}

	mu.Lock()
	got := len(seen)
	mu.Unlock()
	if got != 2 {
		t.Fatalf("slow hook fired %d times, want 2", got)
	}
	for _, fs := range seen {
		if fs.Name != "slow.op" || fs.Duration <= 0 || fs.TraceID == 0 {
			t.Errorf("malformed slow span record: %+v", fs)
		}
	}
}

// TestSlowSpanThresholdFiltersFast verifies fast spans stay below an
// armed high threshold and that disarming stops reporting entirely.
func TestSlowSpanThresholdFiltersFastAndDisarms(t *testing.T) {
	st := NewSpanStore(16, 1)

	var fired sync.Map
	st.SetSlowThreshold(time.Hour, func(fs FinishedSpan) { fired.Store(fs.ID, true) })
	_, sp := st.StartSpan(context.Background(), "fast.op")
	sp.End()
	count := 0
	fired.Range(func(_, _ any) bool { count++; return true })
	if count != 0 {
		t.Errorf("fast span reported as slow %d times", count)
	}

	// Arm low, then disarm; the span ended after disarm must not fire.
	st.SetSlowThreshold(time.Nanosecond, func(fs FinishedSpan) { fired.Store(fs.ID, true) })
	st.SetSlowThreshold(0, nil)
	_, sp2 := st.StartSpan(context.Background(), "post.disarm")
	time.Sleep(time.Microsecond)
	sp2.End()
	count = 0
	fired.Range(func(_, _ any) bool { count++; return true })
	if count != 0 {
		t.Errorf("disarmed hook fired %d times", count)
	}
}

// TestRuntimeStatsCollector checks the iotsec_runtime_* gauges show up
// in both the snapshot and the Prometheus rendering, and that
// re-registration stays idempotent.
func TestRuntimeStatsCollector(t *testing.T) {
	r := NewRegistry()
	r.RegisterRuntimeStats()
	r.RegisterRuntimeStats() // must replace, not duplicate

	want := map[string]bool{
		"iotsec_runtime_goroutines":       false,
		"iotsec_runtime_heap_alloc_bytes": false,
		"iotsec_runtime_gc_runs_total":    false,
		"iotsec_runtime_uptime_seconds":   false,
	}
	counts := map[string]int{}
	snap := r.Snapshot(0)
	for _, m := range snap.Metrics {
		if _, ok := want[m.Name]; ok {
			want[m.Name] = true
			counts[m.Name]++
		}
		if m.Name == "iotsec_runtime_goroutines" && (len(m.Samples) != 1 || m.Samples[0].Value < 1) {
			t.Errorf("goroutines gauge samples = %+v", m.Samples)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("runtime metric %s missing from snapshot", name)
		}
		if counts[name] > 1 {
			t.Errorf("runtime metric %s emitted %d times after re-registration", name, counts[name])
		}
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, "# TYPE iotsec_runtime_goroutines gauge") {
		t.Errorf("prometheus output missing goroutines gauge:\n%s", text)
	}
	if !strings.Contains(text, "# TYPE iotsec_runtime_gc_runs_total counter") {
		t.Errorf("prometheus output missing gc counter")
	}
}
