package sigrepo

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"iotsec/internal/telemetry"
)

const testRule = `alert tcp any any -> any 80 (msg:"wemo backdoor"; content:"wemo-dbg"; sid:100;)`

func TestValidate(t *testing.T) {
	if err := Validate("sku1", testRule); err != nil {
		t.Errorf("valid rule rejected: %v", err)
	}
	if err := Validate("", testRule); err == nil {
		t.Error("empty SKU accepted")
	}
	if err := Validate("sku1", "garbage rule"); err == nil {
		t.Error("garbage rule accepted")
	}
	// The block-everything denial-of-service is refused.
	if err := Validate("sku1", `block ip any any -> any any (msg:"oops"; sid:1;)`); err == nil {
		t.Error("block-everything rule accepted")
	}
}

func TestAnonymizerPseudonyms(t *testing.T) {
	a := NewAnonymizer("salt1")
	p1, p2 := a.Pseudonym("acme-corp"), a.Pseudonym("acme-corp")
	if p1 != p2 {
		t.Error("pseudonym not stable")
	}
	if a.Pseudonym("other-corp") == p1 {
		t.Error("distinct identities collide")
	}
	if NewAnonymizer("salt2").Pseudonym("acme-corp") == p1 {
		t.Error("pseudonym should depend on salt")
	}
	if strings.Contains(p1, "acme") {
		t.Error("pseudonym leaks identity")
	}
}

func TestAnonymizerScrubsInternalAddresses(t *testing.T) {
	a := NewAnonymizer("s")
	rule := `alert tcp 192.168.1.5 any -> 10.0.0.7/32 80 (msg:"x"; content:"y"; sid:1;)`
	scrubbed := a.ScrubRule(rule)
	if strings.Contains(scrubbed, "192.168") || strings.Contains(scrubbed, "10.0.0.7") {
		t.Errorf("internal addresses survive: %q", scrubbed)
	}
	// And the scrubbed rule must still parse.
	if err := Validate("sku", scrubbed); err != nil {
		t.Errorf("scrubbed rule invalid: %v (%q)", err, scrubbed)
	}
	desc := a.ScrubDescription("seen from 10.1.2.3 in our lab")
	if strings.Contains(desc, "10.1.2.3") {
		t.Errorf("description leaks address: %q", desc)
	}
}

func TestReputationDynamics(t *testing.T) {
	r := NewReputationSystem()
	if s := r.Score("newbie"); s != 0.3 {
		t.Errorf("initial score = %v", s)
	}
	for i := 0; i < 10; i++ {
		r.RecordOutcome("good", true)
	}
	for i := 0; i < 3; i++ {
		r.RecordOutcome("bad", false)
	}
	if r.Score("good") <= r.Score("newbie") || r.Score("bad") >= r.Score("newbie") {
		t.Errorf("ordering violated: good=%.2f newbie=%.2f bad=%.2f",
			r.Score("good"), r.Score("newbie"), r.Score("bad"))
	}
	if w := r.VoteWeight("bad"); w < 0.05 {
		t.Errorf("vote weight below floor: %v", w)
	}
}

func TestReputationBoundsProperty(t *testing.T) {
	f := func(outcomes []bool) bool {
		r := NewReputationSystem()
		for _, up := range outcomes {
			r.RecordOutcome("x", up)
		}
		s := r.Score("x")
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPublishQuarantineAndClearing(t *testing.T) {
	repo := NewRepository("salt")
	sig, err := repo.Publish(context.Background(), "contributor-a", "belkin-wemo", testRule, "backdoor traffic")
	if err != nil {
		t.Fatal(err)
	}
	if !sig.Quarantined {
		t.Fatal("new-contributor signature should quarantine")
	}
	if got := repo.Fetch("belkin-wemo"); len(got) != 0 {
		t.Fatalf("quarantined signature visible: %v", got)
	}

	// Votes from three average-trust members clear it.
	var cleared []Signature
	repo.Subscribe("subscriber-z", "belkin-wemo", func(n Notification) {
		cleared = append(cleared, n.Signature)
	})
	for i, voter := range []string{"v1", "v2", "v3"} {
		if _, err := repo.Vote(context.Background(), voter, sig.ID, true); err != nil {
			t.Fatalf("vote %d: %v", i, err)
		}
	}
	if got := repo.Fetch("belkin-wemo"); len(got) != 1 {
		t.Fatalf("cleared signature not visible: %v", got)
	}
	if len(cleared) != 1 {
		t.Errorf("subscriber notified %d times, want 1", len(cleared))
	}
	// Contributor reputation rose.
	if repo.Reputation().Score(repo.Pseudonym("contributor-a")) <= 0.3 {
		t.Error("confirmed contribution did not raise reputation")
	}
}

func TestVoteGuards(t *testing.T) {
	repo := NewRepository("salt")
	sig, err := repo.Publish(context.Background(), "author", "sku1", testRule, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Vote(context.Background(), "author", sig.ID, true); !errors.Is(err, ErrDuplicateVote) {
		t.Errorf("self-vote: %v", err)
	}
	if _, err := repo.Vote(context.Background(), "v1", sig.ID, true); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Vote(context.Background(), "v1", sig.ID, true); !errors.Is(err, ErrDuplicateVote) {
		t.Errorf("double vote: %v", err)
	}
	if _, err := repo.Vote(context.Background(), "v1", "sig-999999", true); !errors.Is(err, ErrUnknownSignature) {
		t.Errorf("vote on ghost: %v", err)
	}
}

func TestDownvotesRetireSignatureAndBurnReputation(t *testing.T) {
	repo := NewRepository("salt")
	sig, err := repo.Publish(context.Background(), "spammer", "sku1", testRule, "bogus")
	if err != nil {
		t.Fatal(err)
	}
	before := repo.Reputation().Score(repo.Pseudonym("spammer"))
	for _, voter := range []string{"v1", "v2", "v3"} {
		if _, err := repo.Vote(context.Background(), voter, sig.ID, false); err != nil {
			// Once the score crosses the reject threshold the
			// signature is retired; later votes see it gone.
			if errors.Is(err, ErrUnknownSignature) {
				break
			}
			t.Fatal(err)
		}
	}
	total, _ := repo.Stats()
	if total != 0 {
		t.Errorf("refuted signature not retired: %d left", total)
	}
	after := repo.Reputation().Score(repo.Pseudonym("spammer"))
	if after >= before {
		t.Errorf("reputation did not burn: %.2f -> %.2f", before, after)
	}
}

func TestTrustedContributorSkipsQuarantine(t *testing.T) {
	repo := NewRepository("salt")
	pseudo := repo.Pseudonym("veteran")
	for i := 0; i < 30; i++ {
		repo.Reputation().RecordOutcome(pseudo, true)
	}
	sig, err := repo.Publish(context.Background(), "veteran", "sku1", testRule, "")
	if err != nil {
		t.Fatal(err)
	}
	if sig.Quarantined {
		t.Error("high-reputation submission quarantined")
	}
}

func TestContributorPriorityNotification(t *testing.T) {
	repo := NewRepository("salt")
	repo.PriorityLag = 50 * time.Millisecond

	// contributor-b has shared before; freeloader-c has not.
	if _, err := repo.Publish(context.Background(), "contributor-b", "other-sku", testRule, ""); err != nil {
		t.Fatal(err)
	}

	type arrival struct {
		who      string
		when     time.Time
		priority bool
	}
	var mu sync.Mutex
	var arrivals []arrival
	record := func(who string) Subscriber {
		return func(n Notification) {
			mu.Lock()
			arrivals = append(arrivals, arrival{who, time.Now(), n.Priority})
			mu.Unlock()
		}
	}
	repo.Subscribe("contributor-b", "belkin-wemo", record("contributor"))
	repo.Subscribe("freeloader-c", "belkin-wemo", record("freeloader"))

	sig, err := repo.Publish(context.Background(), "contributor-a", "belkin-wemo", testRule, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"v1", "v2", "v3"} {
		if _, err := repo.Vote(context.Background(), v, sig.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(150 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	var contribAt, freeAt time.Time
	for _, a := range arrivals {
		if a.who == "contributor" {
			contribAt = a.when
			if !a.priority {
				t.Error("contributor not flagged priority")
			}
		} else {
			freeAt = a.when
		}
	}
	if !contribAt.Before(freeAt) {
		t.Error("contributor did not hear first")
	}
	if lag := freeAt.Sub(contribAt); lag < 30*time.Millisecond {
		t.Errorf("priority lag = %v, want >= ~50ms", lag)
	}
}

func TestServerClientEndToEnd(t *testing.T) {
	repo := NewRepository("salt")
	srv := NewServer(repo)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	publisher, err := DialClient(addr, "org-a")
	if err != nil {
		t.Fatal(err)
	}
	defer publisher.Close()

	subscriber, err := DialClient(addr, "org-b")
	if err != nil {
		t.Fatal(err)
	}
	defer subscriber.Close()
	pushed := make(chan Signature, 4)
	subscriber.SetOnNotify(func(sig Signature, _ bool) { pushed <- sig })
	if err := subscriber.Subscribe("belkin-wemo"); err != nil {
		t.Fatal(err)
	}

	sig, err := publisher.Publish("belkin-wemo", testRule, "seen in the wild")
	if err != nil {
		t.Fatal(err)
	}
	if !sig.Quarantined {
		t.Error("expected quarantine over the wire too")
	}
	// Three voters clear it.
	for i := 0; i < 3; i++ {
		voter, err := DialClient(addr, fmt.Sprintf("voter-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := voter.Vote(sig.ID, true); err != nil {
			t.Fatal(err)
		}
		voter.Close()
	}
	select {
	case got := <-pushed:
		if got.ID != sig.ID {
			t.Errorf("pushed %s, want %s", got.ID, sig.ID)
		}
		if strings.Contains(got.Contributor, "org-a") {
			t.Error("contributor identity leaked over the wire")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no push notification")
	}

	sigs, err := subscriber.Fetch("belkin-wemo")
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs) != 1 {
		t.Errorf("fetched %d signatures", len(sigs))
	}
	skus, err := subscriber.SKUs()
	if err != nil {
		t.Fatal(err)
	}
	if len(skus) != 1 || skus[0] != "belkin-wemo" {
		t.Errorf("skus = %v", skus)
	}
	// Server rejects invalid publishes.
	if _, err := publisher.Publish("belkin-wemo", "nonsense", ""); err == nil {
		t.Error("invalid rule accepted over the wire")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	repo := NewRepository("salt")
	sig, err := repo.Publish(context.Background(), "org-a", "sku-1", testRule, "desc")
	if err != nil {
		t.Fatal(err)
	}
	// Clear it with votes so scores and reputations are non-trivial.
	for _, v := range []string{"v1", "v2", "v3"} {
		if _, err := repo.Vote(context.Background(), v, sig.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	quarantined, err := repo.Publish(context.Background(), "org-b", "sku-2", testRule, "pending")
	if err != nil {
		t.Fatal(err)
	}

	path := t.TempDir() + "/repo.json"
	if err := repo.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	restored := NewRepository("salt")
	if err := restored.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	// Cleared signature visible for its SKU.
	got := restored.Fetch("sku-1")
	if len(got) != 1 || got[0].ID != sig.ID || got[0].Quarantined {
		t.Fatalf("restored sku-1 = %+v", got)
	}
	// Quarantined one stays hidden but counted.
	if len(restored.Fetch("sku-2")) != 0 {
		t.Error("quarantined signature leaked after restore")
	}
	total, q := restored.Stats()
	if total != 2 || q != 1 {
		t.Errorf("stats = %d/%d", total, q)
	}
	// Reputation carried over: org-a gained from the confirmation.
	if restored.Reputation().Score(restored.Pseudonym("org-a")) <= 0.3 {
		t.Error("reputation lost across restore")
	}
	// Double-vote protection survives: v1 already voted on sig.
	if _, err := restored.Vote(context.Background(), "v1", sig.ID, true); !errors.Is(err, ErrDuplicateVote) {
		t.Errorf("vote dedup lost: %v", err)
	}
	// New IDs continue after the highest allocated one.
	newSig, err := restored.Publish(context.Background(), "org-c", "sku-3", testRule, "")
	if err != nil {
		t.Fatal(err)
	}
	if newSig.ID == sig.ID || newSig.ID == quarantined.ID {
		t.Errorf("ID collision after restore: %s", newSig.ID)
	}
}

func TestLoadFileMissingAndCorrupt(t *testing.T) {
	repo := NewRepository("s")
	if err := repo.LoadFile(t.TempDir() + "/nope.json"); err == nil {
		t.Error("missing file loaded")
	}
	bad := t.TempDir() + "/bad.json"
	if err := os.WriteFile(bad, []byte("{nonsense"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := repo.LoadFile(bad); err == nil {
		t.Error("corrupt file loaded")
	}
}

// TestServerUnknownOpsShareOneSpanSeries: span names are metric
// series, so a client sending 1,000 distinct bogus ops must not add
// one series each; they all land on the one unknown-op series. The
// registry is process-wide, so the test names the series the server
// may have rather than counting all of them: another test's spans can
// add series at any time.
func TestServerUnknownOpsShareOneSpanSeries(t *testing.T) {
	srv := NewServer(NewRepository("salt"))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	replies := bufio.NewScanner(conn)
	ask := func(op string) {
		t.Helper()
		if _, err := fmt.Fprintf(conn, "{\"op\":%q}\n", op); err != nil {
			t.Fatal(err)
		}
		if !replies.Scan() || !strings.Contains(replies.Text(), "unknown op") {
			t.Fatalf("op %q: reply %q, err %v", op, replies.Text(), replies.Err())
		}
	}
	known := map[string]bool{"sigrepo.server.unknown": true}
	for _, op := range []string{"publish", "vote", "fetch", "skus", "subscribe"} {
		known["sigrepo.server."+op] = true
	}
	for i := 0; i < 1000; i++ {
		ask(fmt.Sprintf("bogus-%d", i))
	}
	var b strings.Builder
	if err := telemetry.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sawUnknown := false
	for _, line := range strings.Split(b.String(), "\n") {
		rest, ok := strings.CutPrefix(line, `iotsec_span_seconds_count{span="sigrepo.server.`)
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(rest, `"`)
		name = "sigrepo.server." + name
		if !known[name] {
			t.Errorf("bogus ops minted span series %q", name)
		}
		sawUnknown = sawUnknown || name == "sigrepo.server.unknown"
	}
	if !sawUnknown {
		t.Error("bogus ops recorded no sigrepo.server.unknown span")
	}
}
