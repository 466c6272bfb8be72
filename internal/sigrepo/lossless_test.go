package sigrepo

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"iotsec/internal/resilience"
)

// TestReplayBacklogLargerThanNotifyBuffer pins the no-loss guarantee
// for cursor replay: a subscriber backfilling a SKU whose cleared
// history is much larger than the per-connection notify ring must
// still receive every event. (Replays are written synchronously on
// the subscribe path, never through the evictable live ring — with
// the old enqueue-based replay, the drop-oldest ring silently lost
// the head of the backlog and the advancing cursor made the loss
// permanent.)
func TestReplayBacklogLargerThanNotifyBuffer(t *testing.T) {
	const backlog = 40

	repo := NewRepository("s")
	trust(repo, "pub")
	want := make(map[string]bool, backlog)
	for i := 1; i <= backlog; i++ {
		want[publishCleared(t, repo, "pub", "sku-big", i).ID] = true
	}

	srv := NewServer(repo)
	srv.NotifyBuffer = 8 // far smaller than the backlog
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialClient(addr, "gw")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var mu sync.Mutex
	got := make(map[string]int)
	c.SetOnPush(func(p Push) {
		mu.Lock()
		got[p.Signature.ID]++
		mu.Unlock()
	})
	head, err := c.SubscribeSince("sku-big", 0)
	if err != nil {
		t.Fatal(err)
	}
	if head != backlog {
		t.Fatalf("head = %d, want %d", head, backlog)
	}
	waitFor(t, "full backlog replay", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == backlog
	})
	mu.Lock()
	defer mu.Unlock()
	for id := range want {
		if got[id] != 1 {
			t.Errorf("signature %s replayed %d times, want exactly 1", id, got[id])
		}
	}
}

// TestLiveGapTriggersFetchResync pins the client-side half of the
// no-loss guarantee: when the server's drop-oldest live ring evicts
// pushes for a slow subscriber, the next live notify arrives with a
// sequence jump; the managed client must detect the gap and recover
// the missing signatures with a fetch resync (the cursor alone cannot
// — it has already advanced past the evicted events).
func TestLiveGapTriggersFetchResync(t *testing.T) {
	base := runtime.NumGoroutine()

	// An offline twin of the repository accumulates three cleared
	// signatures; importing its snapshot into the live repository
	// later simulates events the subscriber's notifications missed
	// (ImportJSON does not notify live subscribers).
	twin := NewRepository("s")
	trust(twin, "pub")
	var missedIDs []string
	for i := 1; i <= 3; i++ {
		missedIDs = append(missedIDs, publishCleared(t, twin, "pub", "sku-x", i).ID)
	}
	var snap bytes.Buffer
	if err := twin.ExportJSON(&snap); err != nil {
		t.Fatal(err)
	}

	repo := NewRepository("s")
	trust(repo, "pub")
	first := publishCleared(t, repo, "pub", "sku-x", 1) // same rule → same ID as twin's seq 1
	srv := NewServer(repo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	installed := newInstallRecorder()
	mc, err := DialManaged(addr, "gw", ManagedOptions{
		Backoff:   resilience.BackoffOptions{Base: 5 * time.Millisecond, Cap: 25 * time.Millisecond, Seed: 4},
		SKUs:      func() []string { return []string{"sku-x"} },
		OnInstall: installed.record,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial backfill", func() bool { return installed.count(first.ID) == 1 })
	if first.ID != missedIDs[0] {
		t.Fatalf("test setup: live sig %s != twin seq-1 sig %s", first.ID, missedIDs[0])
	}

	// Silently advance the repository past the subscriber (seqs 2 and
	// 3 now exist but were never pushed), then clear one more
	// signature normally: its live notify carries seq 4 while the
	// client expects seq 2 — a gap, exactly what a ring eviction
	// produces.
	if err := repo.ImportJSON(&snap); err != nil {
		t.Fatal(err)
	}
	fourth := publishCleared(t, repo, "pub", "sku-x", 4)

	waitFor(t, "gap resync convergence", func() bool {
		for _, id := range missedIDs {
			if installed.count(id) != 1 {
				return false
			}
		}
		return installed.count(fourth.ID) == 1
	})
	if got := mc.Gaps(); got != 1 {
		t.Errorf("gaps detected = %d, want 1", got)
	}
	if cur := mc.Cursors()["sku-x"]; cur != 4 {
		t.Errorf("cursor = %d, want 4", cur)
	}
	// Exactly-once: neither the push path nor the resync may double-install.
	for id, n := range installed.ids() {
		if n != 1 {
			t.Errorf("signature %s installed %d times, want exactly 1", id, n)
		}
	}
	mc.Close()
	waitGoroutines(t, base)
}

// TestConcurrentOutboxPersist hammers the durable outbox from many
// goroutines while the link is down: persists are serialized, so the
// on-disk file must always be one complete, parseable snapshot
// holding every queued op (run under -race this also pins the
// persistMu serialization).
func TestConcurrentOutboxPersist(t *testing.T) {
	dir := t.TempDir()
	outboxPath := filepath.Join(dir, "outbox.json")

	repo := NewRepository("s")
	srv := NewServer(repo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mc, err := DialManaged(addr, "gw", ManagedOptions{
		Backoff:    resilience.BackoffOptions{Base: 5 * time.Millisecond, Cap: 25 * time.Millisecond, Seed: 6},
		OutboxPath: outboxPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	waitFor(t, "degraded", func() bool { return mc.State() == resilience.Degraded })

	const writers, perWriter = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				sid := w*perWriter + i + 1
				rule := fmt.Sprintf(`block tcp any any -> any 80 (msg:"m%d"; content:"t%d"; sid:%d;)`, sid, sid, sid)
				if _, err := mc.Publish("sku-x", rule, "d"); err != nil {
					t.Errorf("publish %d: %v", sid, err)
				}
			}
		}(w)
	}
	wg.Wait()
	mc.Close()

	if depth := mc.OutboxDepth(); depth != writers*perWriter {
		t.Fatalf("outbox depth = %d, want %d", depth, writers*perWriter)
	}
	data, err := os.ReadFile(outboxPath)
	if err != nil {
		t.Fatal(err)
	}
	var ops []OutboxOp
	if err := json.Unmarshal(data, &ops); err != nil {
		t.Fatalf("outbox file corrupt: %v", err)
	}
	if len(ops) != writers*perWriter {
		t.Fatalf("persisted %d ops, want %d", len(ops), writers*perWriter)
	}
}

// TestRepublishAfterRejection pins the dedup-index scoping: an
// idempotent-republish match must cover only live signatures, so a
// rule the community rejected can be resubmitted as a fresh
// (quarantined) signature rather than being answered with the retired
// one forever.
func TestRepublishAfterRejection(t *testing.T) {
	r := NewRepository("s")
	rule := `block tcp any any -> any 80 (msg:"m"; content:"tok"; sid:11;)`
	first, err := r.Publish(context.Background(), "gw", "sku-x", rule, "d")
	if err != nil {
		t.Fatal(err)
	}
	if !first.Quarantined {
		t.Fatal("expected initial quarantine")
	}
	// While quarantined (not yet rejected) a retry still dedupes.
	retry, err := r.Publish(context.Background(), "gw", "sku-x", rule, "d")
	if err != nil {
		t.Fatal(err)
	}
	if retry.ID != first.ID {
		t.Fatalf("quarantined retry forked %s from %s", retry.ID, first.ID)
	}

	// Two default-weight downvotes (≈0.55 each) push the score past
	// RejectScore: the signature retires and unlinks from the index.
	for _, voter := range []string{"v1", "v2"} {
		if _, err := r.Vote(context.Background(), voter, first.ID, false); err != nil {
			t.Fatal(err)
		}
	}
	if total, _ := r.Stats(); total != 0 {
		t.Fatalf("rows after rejection = %d, want 0", total)
	}

	second, err := r.Publish(context.Background(), "gw", "sku-x", rule, "d")
	if err != nil {
		t.Fatal(err)
	}
	if second.ID == first.ID {
		t.Fatal("republish after rejection returned the retired signature")
	}
	if !second.Quarantined {
		t.Fatal("fresh submission must re-enter quarantine")
	}
	if total, _ := r.Stats(); total != 1 {
		t.Fatalf("rows after resubmission = %d, want 1", total)
	}
}
