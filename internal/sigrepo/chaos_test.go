package sigrepo

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/resilience"
	"iotsec/internal/telemetry"
)

// dumpJournalOnFailure exports the forensic journal as NDJSON to
// $IOTSEC_CHAOS_JOURNAL when the test fails, so CI can upload the
// sigrepo-down → sigrepo-up → sigrepo-replay timeline as an artifact.
func dumpJournalOnFailure(t *testing.T) {
	path := os.Getenv("IOTSEC_CHAOS_JOURNAL")
	if path == "" {
		return
	}
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Logf("chaos journal dump: %v", err)
			return
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		for _, e := range journal.Default.Snapshot(journal.Filter{}) {
			_ = enc.Encode(e)
		}
		t.Logf("chaos journal dumped to %s", path)
	})
	dumpMetricsOnFailure(t)
}

// dumpMetricsOnFailure scrapes the process registry in Prometheus
// text format to $IOTSEC_CHAOS_METRICS when the test fails, so the
// artifact pairs the forensic timeline with the counters/histograms
// (reconnects, replay totals, MTTR) at the moment of failure.
func dumpMetricsOnFailure(t *testing.T) {
	path := os.Getenv("IOTSEC_CHAOS_METRICS")
	if path == "" {
		return
	}
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Logf("chaos metrics dump: %v", err)
			return
		}
		defer f.Close()
		fmt.Fprintf(f, "# chaos metrics snapshot: %s\n", t.Name())
		if err := telemetry.Default.WritePrometheus(f); err != nil {
			t.Logf("chaos metrics dump: %v", err)
			return
		}
		t.Logf("chaos metrics dumped to %s", path)
	})
}

// flakyDialer wraps every managed-client transport in the shared
// fault plan.
func flakyDialer(plan *resilience.FaultPlan) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return nil, err
		}
		return resilience.WrapConn(c, plan), nil
	}
}

// TestChaosSigrepoRestartConvergence is the acceptance scenario for
// the northbound resilience work: a gateway holds a supervised
// session over a flaky link, the repository is killed mid-stream and
// restarted from its snapshot, signatures keep clearing throughout
// (including one the gateway itself publishes while disconnected, via
// the outbox), and the gateway must converge to the EXACT cleared
// set — every signature installed exactly once, the outbox drained
// exactly once, no goroutines leaked, and the journal showing an
// ordered sigrepo-down < sigrepo-up < sigrepo-replay timeline.
func TestChaosSigrepoRestartConvergence(t *testing.T) {
	dumpJournalOnFailure(t)
	base := runtime.NumGoroutine()
	journalStart, _ := journal.Default.Stats()
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "sigrepo.json")
	outboxPath := filepath.Join(dir, "outbox.json")

	repo := NewRepository("chaos-salt")
	trust(repo, "publisher")
	srv := NewServer(repo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	plan := resilience.NewFaultPlan(7)
	installed := newInstallRecorder()
	gw, err := DialManaged(addr, "gateway", ManagedOptions{
		Backoff:    resilience.BackoffOptions{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond, Seed: 3},
		Dial:       flakyDialer(plan),
		OutboxPath: outboxPath,
		SKUs:       func() []string { return []string{"sku-a", "sku-b"} },
		OnInstall:  installed.record,
	})
	if err != nil {
		t.Fatal(err)
	}

	expected := make(map[string]bool) // sig IDs the gateway must install

	// Wave 1: live pushes over a healthy link.
	for i := 1; i <= 3; i++ {
		expected[publishCleared(t, repo, "publisher", "sku-a", i).ID] = true
	}
	for i := 4; i <= 5; i++ {
		expected[publishCleared(t, repo, "publisher", "sku-b", i).ID] = true
	}
	waitFor(t, "wave-1 installs", func() bool {
		for id := range expected {
			if installed.count(id) != 1 {
				return false
			}
		}
		return true
	})

	// Kill the link mid-push: full kill rate, then publish — the push
	// triggers I/O on the dying conn and the session collapses (with
	// killRate 1 no replacement session can complete its handshake).
	plan.SetKillRate(1)
	expected[publishCleared(t, repo, "publisher", "sku-a", 6).ID] = true
	waitFor(t, "link degraded", func() bool { return gw.State() == resilience.Degraded })

	// A signature clears while the gateway is down: it MUST come back
	// later via cursor replay, not be lost.
	expected[publishCleared(t, repo, "publisher", "sku-a", 7).ID] = true

	// While disconnected the gateway distills its own signature; it
	// must queue in the durable outbox.
	if sig, err := gw.Publish("sku-a",
		`block tcp any any -> any 80 (msg:"gateway distilled"; content:"gwtok"; sid:99;)`,
		"observed locally during outage"); err != nil || sig != nil {
		t.Fatalf("outage publish = %v, %v (want queued nil,nil)", sig, err)
	}
	if gw.OutboxDepth() != 1 {
		t.Fatalf("outbox depth = %d, want 1", gw.OutboxDepth())
	}

	// Repository restart from snapshot: cursors, reputation, and the
	// cleared-event log must all survive.
	if err := repo.SaveFile(snapPath); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	repo2 := NewRepository("chaos-salt")
	if err := repo2.LoadFile(snapPath); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(repo2)
	plan.SetKillRate(0) // heal the link as the new repository comes up
	relisten(t, srv2, addr)
	defer srv2.Close()

	// Reconnect: cursor replay recovers the missed wave, the outbox
	// drains exactly once.
	waitFor(t, "outbox drained", func() bool { return gw.OutboxDepth() == 0 && gw.OutboxDelivered() == 1 })

	// The gateway's own signature entered quarantine (its reputation
	// is default); the community clears it and the gateway receives it
	// back as a push.
	var gwSigID string
	repo2.mu.Lock()
	for id, s := range repo2.byID {
		if s.Quarantined {
			gwSigID = id
		}
	}
	repo2.mu.Unlock()
	if gwSigID == "" {
		t.Fatal("gateway's outbox publish did not reach the restarted repository")
	}
	for _, org := range []string{"org-1", "org-2"} {
		voter, err := DialClient(addr, org)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := voter.Vote(gwSigID, true); err != nil {
			t.Fatal(err)
		}
		voter.Close()
	}
	expected[gwSigID] = true

	// Wave 2 against the restarted repository (the publisher's trust
	// was persisted with the snapshot).
	for i := 8; i <= 9; i++ {
		expected[publishCleared(t, repo2, "publisher", "sku-b", i).ID] = true
	}

	// Convergence: the exact cleared set, each installed exactly once.
	waitFor(t, "post-restart convergence", func() bool {
		for id := range expected {
			if installed.count(id) != 1 {
				return false
			}
		}
		return true
	})
	for id, n := range installed.ids() {
		if !expected[id] {
			t.Errorf("unexpected install %s", id)
		}
		if n != 1 {
			t.Errorf("signature %s installed %d times, want exactly 1", id, n)
		}
	}
	// No duplicate rows server-side either (idempotent republish).
	if total, quarantined := repo2.Stats(); total != len(expected) || quarantined != 0 {
		t.Errorf("repository rows = %d (quarantined %d), want %d cleared", total, quarantined, len(expected))
	}
	if gw.Replayed() == 0 {
		t.Error("recovery did not exercise cursor replay")
	}

	// Journal timeline: sigrepo-down < sigrepo-up < sigrepo-replay.
	events := journal.Default.Snapshot(journal.Filter{})
	var downSeq, upSeq, replaySeq uint64
	for _, e := range events {
		if e.Seq <= journalStart {
			continue
		}
		switch e.Type {
		case journal.TypeSigrepoDown:
			if downSeq == 0 {
				downSeq = e.Seq
			}
		case journal.TypeSigrepoUp:
			if downSeq != 0 && upSeq == 0 && e.Seq > downSeq {
				upSeq = e.Seq
			}
		case journal.TypeSigrepoReplay:
			if upSeq != 0 && replaySeq == 0 && e.Seq > upSeq {
				replaySeq = e.Seq
			}
		}
	}
	if downSeq == 0 || upSeq == 0 || replaySeq == 0 {
		t.Errorf("journal timeline incomplete: down=%d up=%d replay=%d", downSeq, upSeq, replaySeq)
	}

	gw.Close()
	if gw.State() != resilience.Down {
		t.Errorf("state after Close = %v", gw.State())
	}
	waitGoroutines(t, base)
}

// TestChaosKillBurstsConvergence hammers the link with repeated
// probabilistic kill bursts while signatures keep clearing; the
// supervised session must converge to the full set with no
// duplicates.
func TestChaosKillBurstsConvergence(t *testing.T) {
	dumpJournalOnFailure(t)
	base := runtime.NumGoroutine()

	repo := NewRepository("burst-salt")
	trust(repo, "publisher")
	srv := NewServer(repo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	plan := resilience.NewFaultPlan(11)
	installed := newInstallRecorder()
	gw, err := DialManaged(addr, "gateway", ManagedOptions{
		Backoff:   resilience.BackoffOptions{Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond, Seed: 5},
		Dial:      flakyDialer(plan),
		SKUs:      func() []string { return []string{"sku-a"} },
		OnInstall: installed.record,
	})
	if err != nil {
		t.Fatal(err)
	}

	expected := make(map[string]bool)
	for round := 0; round < 4; round++ {
		plan.SetKillRate(0.4)
		for i := 0; i < 3; i++ {
			expected[publishCleared(t, repo, "publisher", "sku-a", round*10+i+1).ID] = true
			time.Sleep(2 * time.Millisecond)
		}
		plan.SetKillRate(0)
		time.Sleep(20 * time.Millisecond)
	}

	waitFor(t, "burst convergence", func() bool {
		for id := range expected {
			if installed.count(id) != 1 {
				return false
			}
		}
		return true
	})
	for id, n := range installed.ids() {
		if n != 1 {
			t.Errorf("signature %s installed %d times, want 1", id, n)
		}
	}
	gw.Close()
	waitGoroutines(t, base)
}
