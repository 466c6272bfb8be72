package sigrepo

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"iotsec/internal/resilience"
)

// trust makes an identity's pseudonym trusted enough to skip
// quarantine (score ≥ 0.8), so publishes clear immediately and emit
// cleared events.
func trust(r *Repository, identity string) {
	pseudo := r.Pseudonym(identity)
	for i := 0; i < 20; i++ {
		r.Reputation().RecordOutcome(pseudo, true)
	}
}

// publishCleared publishes a signature that clears immediately (the
// identity must be trusted) and returns it.
func publishCleared(t *testing.T, r *Repository, identity, sku string, sid int) *Signature {
	t.Helper()
	rule := fmt.Sprintf(`block tcp any any -> any 80 (msg:"m%d"; content:"tok%d"; sid:%d;)`, sid, sid, sid)
	sig, err := r.Publish(context.Background(), identity, sku, rule, "d")
	if err != nil {
		t.Fatal(err)
	}
	if sig.Quarantined {
		t.Fatalf("publish by %s still quarantined; trust() missing?", identity)
	}
	return sig
}

func TestSubscribeSinceCursorReplay(t *testing.T) {
	r := NewRepository("s")
	trust(r, "pub")
	var ids []string
	for i := 1; i <= 5; i++ {
		ids = append(ids, publishCleared(t, r, "pub", "sku-x", i).ID)
	}
	if head := head(r, "sku-x"); head != 5 {
		t.Fatalf("head = %d, want 5", head)
	}

	// Resume from cursor 2: replay events 3..5 in order, marked Replay.
	cancel, replay, head := r.SubscribeSince("sub", "sku-x", 2, func(Notification) {})
	defer cancel()
	if head != 5 {
		t.Fatalf("head = %d, want 5", head)
	}
	if len(replay) != 3 {
		t.Fatalf("replayed %d events, want 3", len(replay))
	}
	for i, n := range replay {
		if n.Seq != uint64(3+i) || !n.Replay || n.Signature.ID != ids[2+i] {
			t.Fatalf("replay[%d] = seq %d id %s replay=%v", i, n.Seq, n.Signature.ID, n.Replay)
		}
	}

	// NoReplay subscribes live-only.
	cancel2, replay2, _ := r.SubscribeSince("sub2", "sku-x", NoReplay, func(Notification) {})
	defer cancel2()
	if len(replay2) != 0 {
		t.Fatalf("NoReplay delivered %d events", len(replay2))
	}
}

func TestSubscribeSinceTruncatedLogFallsBackToFullScan(t *testing.T) {
	r := NewRepository("s")
	r.EventLogCap = 2
	trust(r, "pub")
	for i := 1; i <= 5; i++ {
		publishCleared(t, r, "pub", "sku-x", i)
	}
	// Cursor 0 predates the retained log (seqs 4,5); the full cleared
	// set must still come back, in sequence order.
	cancel, replay, _ := r.SubscribeSince("sub", "sku-x", 0, func(Notification) {})
	defer cancel()
	if len(replay) != 5 {
		t.Fatalf("replayed %d events, want 5 (full-scan fallback)", len(replay))
	}
	for i, n := range replay {
		if n.Seq != uint64(i+1) {
			t.Fatalf("replay[%d].Seq = %d, want %d", i, n.Seq, i+1)
		}
	}
}

func TestSnapshotRoundTripPreservesCursors(t *testing.T) {
	r := NewRepository("s")
	trust(r, "pub")
	for i := 1; i <= 3; i++ {
		publishCleared(t, r, "pub", "sku-x", i)
	}
	var buf bytes.Buffer
	if err := r.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	r2 := NewRepository("s")
	if err := r2.ImportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if head := head(r2, "sku-x"); head != 3 {
		t.Fatalf("restored head = %d, want 3", head)
	}
	cancel, replay, _ := r2.SubscribeSince("sub", "sku-x", 1, func(Notification) {})
	defer cancel()
	if len(replay) != 2 || replay[0].Seq != 2 || replay[1].Seq != 3 {
		t.Fatalf("restored replay = %+v", replay)
	}
	// The sequence keeps growing from the restored head.
	sig := publishCleared(t, r2, "pub", "sku-x", 9)
	if sig.ClearSeq != 4 {
		t.Fatalf("post-restore clear seq = %d, want 4", sig.ClearSeq)
	}
}

func TestLegacySnapshotRebuildsCursors(t *testing.T) {
	// A pre-cursor snapshot: cleared signatures with ClearSeq 0 and no
	// seqs/events sections.
	state := snapshotState{
		NextID: 2,
		Signatures: []Signature{
			{ID: "sig-000001", SKU: "sku-x", Rule: `alert tcp any any -> any 80 (msg:"a"; sid:1;)`,
				Contributor: "anon-1", Submitted: time.Now().Add(-2 * time.Hour)},
			{ID: "sig-000002", SKU: "sku-x", Rule: `alert tcp any any -> any 80 (msg:"b"; sid:2;)`,
				Contributor: "anon-1", Submitted: time.Now().Add(-time.Hour)},
		},
		Votes:      map[string]map[string]bool{},
		Reputation: map[string]float64{},
	}
	data, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRepository("s")
	if err := r.ImportJSON(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if head := head(r, "sku-x"); head != 2 {
		t.Fatalf("rebuilt head = %d, want 2", head)
	}
	cancel, replay, _ := r.SubscribeSince("sub", "sku-x", 0, func(Notification) {})
	defer cancel()
	if len(replay) != 2 || replay[0].Signature.ID != "sig-000001" || replay[1].Signature.ID != "sig-000002" {
		t.Fatalf("rebuilt replay = %+v", replay)
	}
}

func TestPublishIdempotentRetry(t *testing.T) {
	r := NewRepository("s")
	rule := `block tcp any any -> any 80 (msg:"m"; content:"tok"; sid:7;)`
	first, err := r.Publish(context.Background(), "gw", "sku-x", rule, "d")
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Publish(context.Background(), "gw", "sku-x", rule, "d")
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Fatalf("retry created a duplicate: %s vs %s", second.ID, first.ID)
	}
	if total, _ := r.Stats(); total != 1 {
		t.Fatalf("total = %d, want 1", total)
	}
	// A different contributor with the same rule is NOT deduped.
	other, err := r.Publish(context.Background(), "other", "sku-x", rule, "d")
	if err != nil {
		t.Fatal(err)
	}
	if other.ID == first.ID {
		t.Fatal("distinct contributors must get distinct signatures")
	}
}

// TestClientSurfacesTermination is the readLoop satellite: a dead
// connection must close Done, expose Err, and fail calls fast instead
// of hanging.
func TestClientSurfacesTermination(t *testing.T) {
	repo := NewRepository("s")
	srv := NewServer(repo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialClient(addr, "ent")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Err() != nil {
		t.Fatalf("live client Err = %v", c.Err())
	}
	srv.Close()
	select {
	case <-c.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("Done() never closed after server shutdown")
	}
	if !errors.Is(c.Err(), ErrClosed) {
		t.Fatalf("Err = %v, want ErrClosed", c.Err())
	}
	start := time.Now()
	if _, err := c.Fetch("sku-x"); err == nil {
		t.Fatal("call on dead client succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("dead-client call took %v (should fail fast)", elapsed)
	}
}

func TestRemoteErrorsAreDistinguishable(t *testing.T) {
	repo := NewRepository("s")
	srv := NewServer(repo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialClient(addr, "ent")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Vote("sig-does-not-exist", true)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("repository rejection not wrapped in ErrRemote: %v", err)
	}
	if errors.Is(err, ErrClosed) {
		t.Fatalf("repository rejection misreported as transport death: %v", err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// relisten rebinds a server on a previously used address, retrying
// briefly while the OS releases the port.
func relisten(t *testing.T, srv *Server, addr string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, err := srv.Listen(addr); err == nil {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestManagedClientOutboxWhileDown(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	outboxPath := filepath.Join(dir, "outbox.json")

	repo := NewRepository("s")
	srv := NewServer(repo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	mc, err := DialManaged(addr, "gw", ManagedOptions{
		Backoff:    resilience.BackoffOptions{Base: 5 * time.Millisecond, Cap: 25 * time.Millisecond, Seed: 1},
		OutboxPath: outboxPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mc.State() != resilience.Up {
		t.Fatalf("state after dial = %v", mc.State())
	}

	// Outage: every publish queues durably.
	srv.Close()
	waitFor(t, "degraded", func() bool { return mc.State() == resilience.Degraded })
	if sig, err := mc.Publish("sku-x", `block tcp any any -> any 80 (msg:"m"; content:"t"; sid:1;)`, "d"); err != nil || sig != nil {
		t.Fatalf("degraded publish = %v, %v (want queued nil,nil)", sig, err)
	}
	if mc.OutboxDepth() != 1 {
		t.Fatalf("outbox depth = %d, want 1", mc.OutboxDepth())
	}
	data, err := os.ReadFile(outboxPath)
	if err != nil || !bytes.Contains(data, []byte("publish")) {
		t.Fatalf("outbox not persisted: %v %q", err, data)
	}

	// Recovery: the supervisor reconnects and drains the outbox.
	srv2 := NewServer(repo)
	relisten(t, srv2, addr)
	defer srv2.Close()
	waitFor(t, "outbox drained", func() bool {
		total, _ := repo.Stats()
		return total == 1 && mc.OutboxDepth() == 0
	})
	if got := mc.OutboxDelivered(); got != 1 {
		t.Fatalf("outbox delivered = %d, want 1", got)
	}
	mc.Close()
	if mc.State() != resilience.Down {
		t.Fatalf("state after Close = %v", mc.State())
	}
	waitGoroutines(t, base)
}

func TestManagedClientOutboxDurableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	outboxPath := filepath.Join(dir, "outbox.json")
	repo := NewRepository("s")
	srv := NewServer(repo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	opts := ManagedOptions{
		Backoff:    resilience.BackoffOptions{Base: 5 * time.Millisecond, Cap: 25 * time.Millisecond, Seed: 1},
		OutboxPath: outboxPath,
	}
	mc, err := DialManaged(addr, "gw", opts)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	waitFor(t, "degraded", func() bool { return mc.State() == resilience.Degraded })
	if _, err := mc.Publish("sku-x", `block tcp any any -> any 80 (msg:"m"; content:"t"; sid:2;)`, "d"); err != nil {
		t.Fatal(err)
	}
	mc.Close() // gateway "restarts" with the op still on disk

	srv2 := NewServer(repo)
	relisten(t, srv2, addr)
	defer srv2.Close()
	mc2, err := DialManaged(addr, "gw", opts) // loads + drains the outbox
	if err != nil {
		t.Fatal(err)
	}
	defer mc2.Close()
	waitFor(t, "restart drain", func() bool {
		total, _ := repo.Stats()
		return total == 1 && mc2.OutboxDepth() == 0
	})
}

func TestManagedClientReconnectResumesCursor(t *testing.T) {
	base := runtime.NumGoroutine()
	repo := NewRepository("s")
	trust(repo, "pub")
	srv := NewServer(repo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	installed := newInstallRecorder()
	mc, err := DialManaged(addr, "gw", ManagedOptions{
		Backoff:   resilience.BackoffOptions{Base: 5 * time.Millisecond, Cap: 25 * time.Millisecond, Seed: 2},
		SKUs:      func() []string { return []string{"sku-x"} },
		OnInstall: installed.record,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	sig1 := publishCleared(t, repo, "pub", "sku-x", 1)
	waitFor(t, "live push", func() bool { return installed.count(sig1.ID) == 1 })
	if mc.Cursors()["sku-x"] != 1 {
		t.Fatalf("cursor = %d, want 1", mc.Cursors()["sku-x"])
	}

	// Outage; a signature clears while the gateway is gone.
	srv.Close()
	waitFor(t, "degraded", func() bool { return mc.State() == resilience.Degraded })
	sig2 := publishCleared(t, repo, "pub", "sku-x", 2)

	srv2 := NewServer(repo)
	relisten(t, srv2, addr)
	defer srv2.Close()
	waitFor(t, "cursor replay", func() bool { return installed.count(sig2.ID) == 1 })
	if mc.Replayed() == 0 {
		t.Fatal("missed-event recovery did not use cursor replay")
	}
	// The pre-outage signature must not be re-installed.
	if n := installed.count(sig1.ID); n != 1 {
		t.Fatalf("sig1 installed %d times, want exactly 1", n)
	}
	mc.Close()
	waitGoroutines(t, base)
}

// installRecorder counts OnInstall invocations per signature ID.
type installRecorder struct {
	mu     sync.Mutex
	counts map[string]int
}

func newInstallRecorder() *installRecorder {
	return &installRecorder{counts: make(map[string]int)}
}

func (r *installRecorder) record(sig Signature, replayed bool) {
	r.mu.Lock()
	r.counts[sig.ID]++
	r.mu.Unlock()
}

func (r *installRecorder) count(id string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[id]
}

func (r *installRecorder) ids() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int, len(r.counts))
	for k, v := range r.counts {
		out[k] = v
	}
	return out
}

// head reports the current cleared-event sequence for a SKU — the
// cursor a fully caught-up subscriber holds.
func head(r *Repository, sku string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seqs[sku]
}
