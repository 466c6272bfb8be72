package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("iotsec_test_ops_total", "ops")
	g := r.NewGauge("iotsec_test_depth", "depth")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g.Set(7)
	g.Dec()
	g.Add(3)
	if g.Value() != 9 {
		t.Fatalf("gauge = %d, want 9", g.Value())
	}
}

func TestRegisterIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("iotsec_test_total", "x")
	b := r.NewCounter("iotsec_test_total", "x")
	if a != b {
		t.Fatal("re-registration should return the original metric")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch should panic")
		}
	}()
	r.NewGauge("iotsec_test_total", "x")
}

func TestCounterVecCopyOnWrite(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("iotsec_test_verdicts_total", "verdicts", "element", "verdict")
	v.With("ids", "drop").Add(3)
	v.With("ids", "forward").Inc()
	if v.With("ids", "drop") != v.With("ids", "drop") {
		t.Fatal("With must be stable")
	}
	samples := v.Samples()
	if len(samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(samples))
	}
	for _, s := range samples {
		if len(s.Labels) != 2 || s.Labels[0].Key != "element" || s.Labels[1].Key != "verdict" {
			t.Fatalf("bad labels: %+v", s.Labels)
		}
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("iotsec_test_latency_seconds", "lat", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got := h.Sum(); got < 5.5 || got > 5.6 {
		t.Fatalf("sum = %v, want ~5.555", got)
	}
	_, _, buckets := h.snapshot()
	want := []uint64{1, 1, 1, 1}
	for i, w := range want {
		if buckets[i] != w {
			t.Fatalf("bucket[%d] = %d, want %d (%v)", i, buckets[i], w, buckets)
		}
	}
	// Median falls in the (0.1, 1] bucket.
	if q := h.Quantile(0.5); q < 0.01 || q > 1 {
		t.Fatalf("p50 = %v out of range", q)
	}
}

func TestHistogramVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("iotsec_test_elem_seconds", "x", []float64{1}, "element")
	v.With("logger").Observe(0.5)
	v.With("ids").Observe(2)
	var lines strings.Builder
	if err := r.WritePrometheus(&lines); err != nil {
		t.Fatal(err)
	}
	out := lines.String()
	for _, want := range []string{
		`iotsec_test_elem_seconds_bucket{element="logger",le="1"} 1`,
		`iotsec_test_elem_seconds_bucket{element="ids",le="+Inf"} 1`,
		`iotsec_test_elem_seconds_count{element="ids"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("iotsec_test_frames_total", "frames seen")
	c.Add(42)
	v := r.NewGaugeVec("iotsec_test_ports", "ports", "switch")
	v.With("uplink").Set(3)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP iotsec_test_frames_total frames seen",
		"# TYPE iotsec_test_frames_total counter",
		"iotsec_test_frames_total 42",
		`iotsec_test_ports{switch="uplink"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCollector(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector("ports:sw1", func(emit func(string, Kind, string, Labels, float64)) {
		emit("iotsec_test_port_tx_frames", KindGauge, "tx", Labels{{Key: "port", Value: "1"}}, 10)
		emit("iotsec_test_port_tx_frames", KindGauge, "tx", Labels{{Key: "port", Value: "2"}}, 20)
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `iotsec_test_port_tx_frames{port="2"} 20`) {
		t.Fatalf("collector output missing:\n%s", b.String())
	}
	// Replace-on-reregister.
	r.RegisterCollector("ports:sw1", func(emit func(string, Kind, string, Labels, float64)) {})
	b.Reset()
	_ = r.WritePrometheus(&b)
	if strings.Contains(b.String(), "port_tx_frames{") {
		t.Fatal("replaced collector still emitting")
	}
	r.UnregisterCollector("ports:sw1")
}

// TestSpans pins the span contract: a child carries its root's trace
// ID, two roots get different IDs, End observes once however often it
// is called, and each span name has its own duration series.
func TestSpans(t *testing.T) {
	countOf := func(name string) uint64 { return spanSeconds.With(name).Count() }
	rootBefore, childBefore := countOf("test.spans.root"), countOf("test.spans.child")

	ctx, root := StartSpan(context.Background(), "test.spans.root")
	cctx, child := StartSpan(ctx, "test.spans.child")
	if TraceID(ctx) == 0 || TraceID(cctx) != TraceID(ctx) {
		t.Fatalf("child trace %d, root trace %d: want the same, non-zero", TraceID(cctx), TraceID(ctx))
	}
	other, root2 := StartSpan(context.Background(), "test.spans.root")
	if TraceID(other) == TraceID(ctx) {
		t.Fatalf("two roots share trace %d", TraceID(ctx))
	}
	if TraceID(context.Background()) != 0 {
		t.Fatal("a context with no span reports a trace")
	}

	child.End()
	root.End()
	root.End() // idempotent
	root2.End()
	if got := countOf("test.spans.root") - rootBefore; got != 2 {
		t.Errorf("root series observed %d, want 2 (two roots, End twice on one)", got)
	}
	if got := countOf("test.spans.child") - childBefore; got != 1 {
		t.Errorf("child series observed %d, want 1", got)
	}

	var b strings.Builder
	if err := Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"test.spans.root", "test.spans.child"} {
		if !strings.Contains(b.String(), `iotsec_span_seconds_count{span="`+name+`"}`) {
			t.Errorf("no iotsec_span_seconds series for %s", name)
		}
	}
}

// TestSpanEndConcurrent ends spans from many goroutines while
// others start them under a shared root, for the race detector.
func TestSpanEndConcurrent(t *testing.T) {
	ctx, root := StartSpan(context.Background(), "test.spans.concurrent")
	before := spanSeconds.With("test.spans.concurrent").Count()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				cctx, sp := StartSpan(ctx, "test.spans.concurrent")
				if TraceID(cctx) != TraceID(ctx) {
					t.Error("child lost its root's trace")
				}
				sp.End()
				root.End()
			}
		}()
	}
	wg.Wait()
	if got := spanSeconds.With("test.spans.concurrent").Count() - before; got != 8*100+1 {
		t.Errorf("observed %d spans, want %d", got, 8*100+1)
	}
}

// TestConcurrentWritersAndScrapes hammers counters, gauges, vectors
// and histograms from many goroutines while scraping concurrently —
// the -race guarantee the exposition path promises.
func TestConcurrentWritersAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("iotsec_test_total", "t")
	g := r.NewGauge("iotsec_test_gauge", "g")
	v := r.NewCounterVec("iotsec_test_vec_total", "v", "who")
	h := r.NewHistogram("iotsec_test_hist_seconds", "h", []float64{0.001, 0.01, 0.1})

	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			who := fmt.Sprintf("w%d", w%3)
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Set(int64(i))
				v.With(who).Inc()
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	// Concurrent scrapes.
	done := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for s := 0; s < 3; s++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-done:
					return
				default:
					var b strings.Builder
					_ = r.WritePrometheus(&b)
					_ = r.Snapshot(8)
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	scrapeWG.Wait()

	if c.Value() != writers*perWriter {
		t.Fatalf("counter = %d, want %d", c.Value(), writers*perWriter)
	}
	if h.Count() != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", h.Count(), writers*perWriter)
	}
	var vecTotal uint64
	for _, s := range v.Samples() {
		vecTotal += uint64(s.Value)
	}
	if vecTotal != writers*perWriter {
		t.Fatalf("vec total = %d, want %d", vecTotal, writers*perWriter)
	}
}

func TestServeAndScrapeHTTP(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("iotsec_test_http_total", "via http").Add(3)
	srv, addr, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "iotsec_test_http_total 3") {
		t.Fatalf("scrape missing counter:\n%s", body)
	}

	resp, err = http.Get("http://" + addr + "/debug/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	var snap SnapshotJSON
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Serve registers the runtime-stats collector, so the snapshot
	// carries the explicit counter plus iotsec_runtime_* gauges.
	var sawCounter, sawRuntime bool
	for _, m := range snap.Metrics {
		switch {
		case m.Name == "iotsec_test_http_total":
			sawCounter = len(m.Samples) == 1 && m.Samples[0].Value == 3
		case strings.HasPrefix(m.Name, "iotsec_runtime_"):
			sawRuntime = true
		}
	}
	if !sawCounter {
		t.Fatalf("snapshot missing iotsec_test_http_total=3: %+v", snap.Metrics)
	}
	if !sawRuntime {
		t.Fatalf("snapshot missing iotsec_runtime_* gauges: %+v", snap.Metrics)
	}
}

// TestServerCloseNoGoroutineLeak verifies telemetry server teardown
// releases every goroutine it started.
func TestServerCloseNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		r := NewRegistry()
		srv, addr, err := r.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: before=%d after=%d", before, runtime.NumGoroutine())
}
