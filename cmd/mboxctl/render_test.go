package main

import (
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/resilience"
	"iotsec/internal/sigrepo"
	"iotsec/internal/slo"
	"iotsec/internal/telemetry"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	ferr := fn()
	os.Stdout = stdout
	w.Close()
	got := <-out
	if ferr != nil {
		t.Fatalf("renderer: %v\n%s", ferr, got)
	}
	return got
}

// TestSLOAndCrowdRenderLiveProducers serves a registry that carries the
// real producers of the metrics `slo` and `crowd` look up by name — an
// slo.Tracker that has closed one chain and a sigrepo.ManagedClient
// link — and checks that both renderers find them. A renamed producer
// metric fails here instead of printing "no MTTR metrics".
func TestSLOAndCrowdRenderLiveProducers(t *testing.T) {
	reg := telemetry.NewRegistry()

	j := journal.New(256)
	tr := slo.NewTracker(j, slo.Options{Registry: reg, ChainTimeout: time.Minute})
	defer tr.Close()
	const trace = 42
	j.RecordTrace(trace, journal.TypeAnomaly, journal.Warn, "wemo", "anomaly")
	j.RecordTrace(trace, journal.TypePosture, journal.Info, "wemo", "posture isolate=true")
	j.RecordTrace(trace, journal.TypeFlowMod, journal.Info, "quarantine", "add prio 400")
	j.RecordTrace(trace, journal.TypeFlowApplied, journal.Info, "quarantine", "applied")
	j.RecordTrace(trace, journal.TypeMboxReconfig, journal.Info, "wemo", "pipeline rebuilt")
	deadline := time.Now().Add(3 * time.Second)
	for tr.Sync(); tr.Inflight() != 0; tr.Sync() {
		if time.Now().After(deadline) {
			t.Fatal("the chain never closed")
		}
		time.Sleep(time.Millisecond)
	}

	srv := sigrepo.NewServer(sigrepo.NewRepository("s"))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mc, err := sigrepo.DialManaged(addr, "gw", sigrepo.ManagedOptions{
		Backoff: resilience.BackoffOptions{Base: 5 * time.Millisecond, Cap: 25 * time.Millisecond, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	mc.ExportTelemetry(reg, "crowd")
	for mc.State() != resilience.Up {
		if time.Now().After(deadline) {
			t.Fatal("sigrepo link never came up")
		}
		time.Sleep(time.Millisecond)
	}

	ts := httptest.NewServer(reg.DebugHandler())
	defer ts.Close()
	debugAddr := strings.TrimPrefix(ts.URL, "http://")

	out := captureStdout(t, func() error { return printSLO(debugAddr, nil) })
	want := []string{"detect→enforce (e2e): 1 chains, p50=", "per-stage latency (from causal predecessor):"}
	for _, stage := range slo.Stages {
		want = append(want, "\n  "+stage+" ")
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("slo output lacks %q:\n%s", w, out)
		}
	}

	out = captureStdout(t, func() error { return printCrowd(debugAddr, nil) })
	for _, w := range []string{`link "crowd": up`, "\n  outbox depth:  0 (delivered 0)\n", "\n  reconnects:    1\n",
		"\n  replayed:      0 (deduped 0)\n", "\n  gap resyncs:   0\n"} {
		if !strings.Contains(out, w) {
			t.Errorf("crowd output lacks %q:\n%s", w, out)
		}
	}
}
