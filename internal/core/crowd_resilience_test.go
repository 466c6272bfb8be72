package core

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"iotsec/internal/policy"
	"iotsec/internal/resilience"
	"iotsec/internal/sigrepo"
)

// trustIdentity makes a contributor trusted enough to skip quarantine
// so repository publishes clear (and notify) immediately.
func trustIdentity(r *sigrepo.Repository, identity string) {
	pseudo := r.Pseudonym(identity)
	for i := 0; i < 20; i++ {
		r.Reputation().RecordOutcome(pseudo, true)
	}
}

func clearedRule(sid int) string {
	return fmt.Sprintf(`block tcp any any -> any 80 (msg:"m%d"; content:"tok%d"; sid:%d;)`, sid, sid, sid)
}

func minimalPlatform(t *testing.T) *Platform {
	t.Helper()
	d := policy.NewDomain()
	f := policy.NewFSM(d)
	p, err := New(Options{Policy: f})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	return p
}

// TestCrowdLinkResubscribeCoversNewSKUs: a SKU that comes under
// management during an outage must get its feed (with full backfill)
// on the next session — the ManagedOptions.SKUs callback is consulted
// at every reconnect.
func TestCrowdLinkResubscribeCoversNewSKUs(t *testing.T) {
	repo := sigrepo.NewRepository("s")
	trustIdentity(repo, "pub")
	srv := sigrepo.NewServer(repo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A signature for sku-b clears before anyone watches that SKU.
	if _, err := repo.Publish(context.Background(), "pub", "sku-b", clearedRule(1), "d"); err != nil {
		t.Fatal(err)
	}

	p := minimalPlatform(t)
	var mu sync.Mutex
	skus := []string{"sku-a"}
	plan := resilience.NewFaultPlan(21)
	link, err := p.ConnectSigrepoOpts(addr, "gw", sigrepo.ManagedOptions{
		Backoff: resilience.BackoffOptions{Base: 5 * time.Millisecond, Cap: 25 * time.Millisecond, Seed: 4},
		Dial: func(a string) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", a, time.Second)
			if err != nil {
				return nil, err
			}
			return resilience.WrapConn(c, plan), nil
		},
		SKUs: func() []string {
			mu.Lock()
			defer mu.Unlock()
			return append([]string(nil), skus...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	if got := len(p.SignatureRules("sku-b")); got != 0 {
		t.Fatalf("sku-b rules before management = %d, want 0", got)
	}

	// sku-b comes under management while the link dies.
	mu.Lock()
	skus = append(skus, "sku-b")
	mu.Unlock()
	plan.SetKillRate(1)
	// Traffic on the dying conn collapses the session.
	if _, err := repo.Publish(context.Background(), "pub", "sku-a", clearedRule(2), "d"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for link.Managed().State() != resilience.Degraded {
		if time.Now().After(deadline) {
			t.Fatal("link never degraded")
		}
		time.Sleep(5 * time.Millisecond)
	}
	plan.SetKillRate(0)

	// The next session subscribes sku-b from cursor 0 and backfills
	// its cleared signature into the platform's rule set.
	deadline = time.Now().Add(5 * time.Second)
	for len(p.SignatureRules("sku-b")) != 1 || len(p.SignatureRules("sku-a")) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("rules after reconnect: sku-a=%v sku-b=%v",
				p.SignatureRules("sku-a"), p.SignatureRules("sku-b"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrowdLinkCloseDuringBackfillNoLeak: closing the link while the
// initial backfill is still streaming must not leak the push
// goroutine or wedge the supervisor.
func TestCrowdLinkCloseDuringBackfillNoLeak(t *testing.T) {
	repo := sigrepo.NewRepository("s")
	trustIdentity(repo, "pub")
	for i := 1; i <= 200; i++ {
		if _, err := repo.Publish(context.Background(), "pub", "sku-a", clearedRule(i), "d"); err != nil {
			t.Fatal(err)
		}
	}
	srv := sigrepo.NewServer(repo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		p := minimalPlatform(t)
		link, err := p.ConnectSigrepoOpts(addr, fmt.Sprintf("gw-%d", i), sigrepo.ManagedOptions{
			Backoff: resilience.BackoffOptions{Base: 5 * time.Millisecond, Cap: 25 * time.Millisecond, Seed: 6},
			SKUs:    func() []string { return []string{"sku-a"} },
		})
		if err != nil {
			t.Fatal(err)
		}
		link.Close() // mid-backfill: 200 replays are still streaming
		if st := link.Managed().State(); st != resilience.Down {
			t.Fatalf("state after Close = %v", st)
		}
	}
	waitGoroutines(t, base)
}

// TestAddSignatureRuleIdempotent: replayed community signatures must
// not duplicate IDS rules.
func TestAddSignatureRuleIdempotent(t *testing.T) {
	p := minimalPlatform(t)
	rule := clearedRule(1)
	for i := 0; i < 3; i++ {
		if err := p.AddSignatureRule("sku-a", rule); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.SignatureRules("sku-a"); len(got) != 1 {
		t.Fatalf("rules = %v, want exactly one", got)
	}
	if err := p.AddSignatureRule("sku-a", clearedRule(2)); err != nil {
		t.Fatal(err)
	}
	if got := p.SignatureRules("sku-a"); len(got) != 2 {
		t.Fatalf("rules = %v, want two distinct", got)
	}
}
