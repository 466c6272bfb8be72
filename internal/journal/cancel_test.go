package journal

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count settles back to at
// most base (HTTP teardown is asynchronous).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d alive, want <= %d", runtime.NumGoroutine(), base)
}

// TestSubscribeCloseReleasesTap: Close ends the stream, detaches the
// tap (no more deliveries, no drop accounting against a dead
// consumer), and is idempotent.
func TestSubscribeCloseReleasesTap(t *testing.T) {
	j := New(64)
	sub := j.Subscribe(2)
	j.RecordTrace(1, TypeAnomaly, Info, "d", "before")
	sub.Close()
	sub.Close() // idempotent

	select {
	case <-sub.Done():
	default:
		t.Fatal("Done not closed after Close")
	}

	// A detached subscriber must not accrue drops however hard the
	// journal is hammered.
	_, drops0 := j.Stats()
	for i := 0; i < 100; i++ {
		j.RecordTrace(uint64(i+2), TypeDeviceEvent, Debug, "d", "after close")
	}
	if _, drops := j.Stats(); drops != drops0 {
		t.Fatalf("drops grew %d→%d after Close — tap not released", drops0, drops)
	}
	// The hammering wrapped the 64-slot ring over the pre-close backlog:
	// it is gone, and must not come back as whatever overwrote it.
	if got := sub.Drain(); len(got) != 0 {
		t.Fatalf("drained %+v from a closed tap whose backlog was overwritten, want nothing", got)
	}
}

// TestServeFollowClientDisconnectReleases: a follow stream whose
// client goes away must release its tap (observable as zero new drop
// accounting under load) and leak no goroutines.
func TestServeFollowClientDisconnectReleases(t *testing.T) {
	j := New(1024)
	srv := httptest.NewServer(j.Handler())
	defer srv.Close()

	base := runtime.NumGoroutine()
	ctx, cancelReq := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"?follow=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Confirm the stream is live, then hang up.
	j.RecordTrace(1, TypeAnomaly, Warn, "cam", "live")
	var e Event
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("live stream never delivered: %v", err)
	}
	cancelReq()
	resp.Body.Close()
	waitGoroutines(t, base)

	// The handler exited; its tap must be gone. A leaked, undrained
	// tap would show up as drops under this hammering.
	_, drops0 := j.Stats()
	for i := 0; i < 1000; i++ { // > the follow buffer of 512
		j.RecordTrace(uint64(i+10), TypeDeviceEvent, Debug, "d", "post-disconnect")
	}
	if _, drops := j.Stats(); drops != drops0 {
		t.Fatalf("drops grew %d→%d after client disconnect — follow subscription leaked", drops0, drops)
	}
}

// TestSubscriptionEvictedConcurrentAppend: under concurrent writers
// and a concurrently draining consumer, delivered + evicted accounts
// for every append — no event is double-counted or silently lost.
func TestSubscriptionEvictedConcurrentAppend(t *testing.T) {
	j := New(4096)
	sub := j.Subscribe(64) // small cap forces evictions under the burst
	defer sub.Close()

	const writers = 8
	const perWriter = 2000
	var delivered uint64
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-sub.Wait():
				n := uint64(len(sub.Drain()))
				mu.Lock()
				delivered += n
				mu.Unlock()
			case <-sub.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				j.RecordTrace(uint64(w*perWriter+i+1), TypeDeviceEvent, Debug, "d", "concurrent")
				if r.Intn(64) == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}
	wg.Wait()

	// Final drain picks up the residue, then close stops the consumer.
	mu.Lock()
	delivered += uint64(len(sub.Drain()))
	mu.Unlock()
	evicted := sub.Evicted()
	sub.Close()
	<-done
	mu.Lock()
	delivered += 0 // barrier for the race detector's benefit
	total := delivered
	mu.Unlock()

	appended, _ := j.Stats()
	if appended != writers*perWriter {
		t.Fatalf("appended %d, want %d", appended, writers*perWriter)
	}
	if total+evicted != appended {
		t.Fatalf("delivered %d + evicted %d != appended %d — tap accounting lost events", total, evicted, appended)
	}
	if evicted == 0 {
		t.Log("note: no evictions occurred this run; accounting identity still verified")
	}
}
