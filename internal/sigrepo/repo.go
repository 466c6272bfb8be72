package sigrepo

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/telemetry"
)

// Notification announces a newly cleared signature to a subscriber.
type Notification struct {
	Signature Signature
	// Seq is the per-SKU monotonic event sequence of the clearing.
	// Subscribers persist the highest Seq they have processed and
	// resume from it (SubscribeSince) after an outage.
	Seq uint64
	// Priority is true for contributors (the paper's incentive:
	// those who share get told first).
	Priority bool
	// Replay marks a cursor-replayed event (the subscriber may have
	// seen it before the outage; consumers dedupe by signature ID).
	Replay bool
}

// clearedEvent is one entry of the per-SKU cleared-signature event
// log: the sequence plus the signature it cleared. The log is the
// bounded replay source behind SubscribeSince; it is persisted with
// the snapshot so cursors survive repository restarts.
type clearedEvent struct {
	Seq   uint64 `json:"seq"`
	SigID string `json:"sig_id"`
}

// Subscriber receives notifications for a SKU. Must not block.
type Subscriber func(n Notification)

// Repository is the in-process core: per-SKU signature storage,
// validation, anonymization, reputation-weighted voting with
// quarantine, and contributor-priority notification. The TCP server
// wraps this.
type Repository struct {
	anon *Anonymizer
	rep  *ReputationSystem

	mu        sync.Mutex
	nextID    int
	nextSubID uint64
	bySKU     map[string][]*Signature
	byID      map[string]*Signature
	votes     map[string]map[string]bool // sigID → pseudonym → voted up?
	subs      map[string][]subscription
	contrib   map[string]bool // pseudonyms that have ever contributed
	// dedup indexes live (non-retired) signatures by contributor+SKU+
	// rule so idempotent republish is O(1) per call. Entries are
	// removed when a signature is retired by down-votes, so a rejected
	// rule CAN be resubmitted as a fresh signature.
	dedup map[string]string // dedupKey → signature ID

	// seqs is the per-SKU monotonic cleared-event sequence; events is
	// the bounded per-SKU event log backing cursor replay.
	seqs   map[string]uint64
	events map[string][]clearedEvent

	// ClearScore releases a quarantined signature at/above this
	// weighted score (default 1.0 ≈ two average-trust upvotes).
	ClearScore float64
	// RejectScore retires a signature at/below this (default -1.0).
	RejectScore float64
	// PriorityLag delays non-contributor notifications (incentive
	// mechanism); contributors get them immediately. Default 0 in
	// process-level use; the server sets a real lag.
	PriorityLag time.Duration
	// EventLogCap bounds the per-SKU cleared-event log (default
	// 1024). Cursors older than the retained window fall back to a
	// full cleared-set replay, so bounding the log never loses
	// signatures — only replay granularity.
	EventLogCap int
}

type subscription struct {
	id        uint64
	pseudonym string
	fn        Subscriber
}

// NewRepository builds a repository.
func NewRepository(salt string) *Repository {
	return &Repository{
		anon:        NewAnonymizer(salt),
		rep:         NewReputationSystem(),
		bySKU:       make(map[string][]*Signature),
		byID:        make(map[string]*Signature),
		votes:       make(map[string]map[string]bool),
		subs:        make(map[string][]subscription),
		contrib:     make(map[string]bool),
		dedup:       make(map[string]string),
		seqs:        make(map[string]uint64),
		events:      make(map[string][]clearedEvent),
		ClearScore:  1.0,
		RejectScore: -1.0,
	}
}

// dedupKey indexes a live signature for idempotent republish.
// Contributor pseudonyms are hash-derived (never contain NUL), so the
// NUL joins keep distinct (contributor, sku, rule) triples distinct.
func dedupKey(contributor, sku, rule string) string {
	return contributor + "\x00" + sku + "\x00" + rule
}

// eventLogCap returns the effective bound for the per-SKU event log.
func (r *Repository) eventLogCap() int {
	if r.EventLogCap < 1 {
		return 1024
	}
	return r.EventLogCap
}

// recordClearLocked assigns the next per-SKU sequence to a freshly
// cleared signature and appends it to the bounded event log. Caller
// holds r.mu.
func (r *Repository) recordClearLocked(sig *Signature) uint64 {
	r.seqs[sig.SKU]++
	seq := r.seqs[sig.SKU]
	sig.ClearSeq = seq
	log := append(r.events[sig.SKU], clearedEvent{Seq: seq, SigID: sig.ID})
	if bound := r.eventLogCap(); len(log) > bound {
		log = append([]clearedEvent(nil), log[len(log)-bound:]...)
	}
	r.events[sig.SKU] = log
	return seq
}

// Reputation exposes the reputation system (for experiments).
func (r *Repository) Reputation() *ReputationSystem { return r.rep }

// Pseudonym maps an identity (e.g., an enterprise account) to its
// anonymous handle.
func (r *Repository) Pseudonym(identity string) string { return r.anon.Pseudonym(identity) }

// Publish validates, anonymizes and stores a signature. It enters
// quarantined unless the contributor's reputation already exceeds the
// clear threshold's worth of trust. The context carries the causal
// trace of the detection that distilled the signature.
func (r *Repository) Publish(ctx context.Context, identity, sku, ruleText, description string) (*Signature, error) {
	ctx, span := telemetry.StartSpan(ctx, "sigrepo.publish")
	defer span.End()
	scrubbed := r.anon.ScrubRule(ruleText)
	if err := Validate(sku, scrubbed); err != nil {
		mPublishRejected.Inc()
		return nil, err
	}
	pseudo := r.anon.Pseudonym(identity)

	r.mu.Lock()
	// Idempotent republish: a contributor resubmitting the exact rule
	// for the same SKU (an outbox retry after an ambiguous connection
	// loss) gets the existing signature back instead of a duplicate —
	// the server-side half of exactly-once publish delivery. The index
	// only holds live signatures (retired entries are unlinked), so a
	// rule the community rejected can be resubmitted fresh; note the
	// returned signature may still be quarantined — the retry observes
	// the pending vote rather than forking a duplicate row.
	if id, ok := r.dedup[dedupKey(pseudo, sku, scrubbed)]; ok {
		if existing, live := r.byID[id]; live {
			cp := *existing
			r.mu.Unlock()
			mPublishDedup.Inc()
			journal.Record(ctx, journal.TypeSigPublish, journal.Debug, sku,
				fmt.Sprintf("%s republished by %s (idempotent retry)", cp.ID, pseudo))
			return &cp, nil
		}
	}
	r.nextID++
	sig := &Signature{
		ID:          fmt.Sprintf("sig-%06d", r.nextID),
		SKU:         sku,
		Rule:        scrubbed,
		Description: r.anon.ScrubDescription(description),
		Contributor: pseudo,
		Submitted:   time.Now(),
		Quarantined: true,
	}
	// Highly trusted contributors skip quarantine: their track record
	// is the evidence.
	if r.rep.Score(pseudo) >= 0.8 {
		sig.Quarantined = false
	}
	r.bySKU[sku] = append(r.bySKU[sku], sig)
	r.byID[sig.ID] = sig
	r.votes[sig.ID] = make(map[string]bool)
	r.contrib[pseudo] = true
	r.dedup[dedupKey(pseudo, sku, scrubbed)] = sig.ID
	cleared := !sig.Quarantined
	var seq uint64
	if cleared {
		seq = r.recordClearLocked(sig)
	}
	cp := *sig
	r.mu.Unlock()

	mPublishes.Inc()
	journal.Record(ctx, journal.TypeSigPublish, journal.Info, sku,
		fmt.Sprintf("%s by %s (quarantined=%v)", cp.ID, pseudo, cp.Quarantined))
	if cleared {
		mCleared.Inc()
		r.notify(cp, seq)
	}
	return &cp, nil
}

// Vote records a reputation-weighted community verdict on a
// signature. When the accumulated score clears or rejects the
// signature, contributor reputations update and (on clearing)
// subscribers are notified.
func (r *Repository) Vote(ctx context.Context, identity, sigID string, up bool) (*Signature, error) {
	ctx, span := telemetry.StartSpan(ctx, "sigrepo.vote")
	defer span.End()
	pseudo := r.anon.Pseudonym(identity)
	weight := r.rep.VoteWeight(pseudo)

	r.mu.Lock()
	sig, ok := r.byID[sigID]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownSignature, sigID)
	}
	if _, dup := r.votes[sigID][pseudo]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %s on %s", ErrDuplicateVote, pseudo, sigID)
	}
	if sig.Contributor == pseudo {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: self-vote on %s", ErrDuplicateVote, sigID)
	}
	r.votes[sigID][pseudo] = up
	if up {
		sig.Score += weight
	} else {
		sig.Score -= weight
	}

	var clearedCopy *Signature
	var clearedSeq uint64
	var outcome *bool
	switch {
	case sig.Quarantined && sig.Score >= r.ClearScore:
		sig.Quarantined = false
		clearedSeq = r.recordClearLocked(sig)
		cp := *sig
		clearedCopy = &cp
		v := true
		outcome = &v
	case sig.Score <= r.RejectScore:
		// Retire: remove from the SKU feed and unlink the republish
		// index, so the contributor may submit the rule anew (as a
		// fresh quarantined signature) rather than being answered with
		// the rejected one forever.
		skuSigs := r.bySKU[sig.SKU]
		for i, s := range skuSigs {
			if s.ID == sigID {
				r.bySKU[sig.SKU] = append(skuSigs[:i], skuSigs[i+1:]...)
				break
			}
		}
		delete(r.byID, sigID)
		delete(r.dedup, dedupKey(sig.Contributor, sig.SKU, sig.Rule))
		v := false
		outcome = &v
	}
	contributor := sig.Contributor
	var voterSides map[string]bool
	if outcome != nil {
		voterSides = make(map[string]bool, len(r.votes[sigID]))
		for voter, votedUp := range r.votes[sigID] {
			voterSides[voter] = votedUp
		}
	}
	cp := *sig
	r.mu.Unlock()

	mVotes.Inc()
	verdict := "down"
	if up {
		verdict = "up"
	}
	journal.Record(ctx, journal.TypeSigVote, journal.Debug, cp.SKU,
		fmt.Sprintf("%s %s by %s (score %.2f)", sigID, verdict, pseudo, cp.Score))
	if outcome != nil {
		if *outcome {
			mCleared.Inc()
		} else {
			mRetired.Inc()
		}
		r.rep.RecordOutcome(contributor, *outcome)
		// Credence-style voter accountability: voters on the wrong
		// side of the settled outcome burn reputation, voters on the
		// right side earn it. Sock puppets that upvote poison lose
		// their voting power after the first refutation.
		for voter, votedUp := range voterSides {
			r.rep.RecordOutcome(voter, votedUp == *outcome)
		}
	}
	if clearedCopy != nil {
		r.notify(*clearedCopy, clearedSeq)
	}
	return &cp, nil
}

// Subscribe registers for cleared signatures on a SKU, starting from
// "now" (no replay). The returned cancel removes the subscription.
func (r *Repository) Subscribe(identity, sku string, fn Subscriber) (cancel func()) {
	cancel, _, _ = r.SubscribeSince(identity, sku, ^uint64(0), fn)
	return cancel
}

// SubscribeSince registers for cleared signatures on a SKU and
// returns, atomically with the registration, every cleared event
// after the `since` cursor — so there is no window in which a
// clearing can be neither replayed nor streamed. Passing since=0
// replays the SKU's full cleared history; passing the previously
// observed head resumes loss-free after an outage; passing ^uint64(0)
// (or the current head) replays nothing. head is the SKU's current
// event sequence at registration time.
func (r *Repository) SubscribeSince(identity, sku string, since uint64, fn Subscriber) (cancel func(), replay []Notification, head uint64) {
	pseudo := r.anon.Pseudonym(identity)
	r.mu.Lock()
	r.nextSubID++
	id := r.nextSubID
	r.subs[sku] = append(r.subs[sku], subscription{id: id, pseudonym: pseudo, fn: fn})
	head = r.seqs[sku]
	if since < head {
		replay = r.replayLocked(sku, since, r.contrib[pseudo])
	}
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		subs := r.subs[sku]
		for i := range subs {
			if subs[i].id == id {
				r.subs[sku] = append(subs[:i], subs[i+1:]...)
				return
			}
		}
	}, replay, head
}

// replayLocked builds the catch-up notifications for a cursor. When
// the bounded event log still covers (since, head] it is walked
// directly; when eviction has truncated past the cursor, the full
// cleared set with ClearSeq > since is replayed instead (over-
// delivery is safe: subscribers dedupe by signature ID). Caller
// holds r.mu.
func (r *Repository) replayLocked(sku string, since uint64, priority bool) []Notification {
	var out []Notification
	log := r.events[sku]
	if len(log) > 0 && log[0].Seq <= since+1 {
		for _, ev := range log {
			if ev.Seq <= since {
				continue
			}
			if s, ok := r.byID[ev.SigID]; ok && !s.Quarantined {
				out = append(out, Notification{Signature: *s, Seq: ev.Seq, Priority: priority, Replay: true})
			}
		}
		return out
	}
	for _, s := range r.bySKU[sku] {
		if !s.Quarantined && s.ClearSeq > since {
			out = append(out, Notification{Signature: *s, Seq: s.ClearSeq, Priority: priority, Replay: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// notify fans a cleared signature out: contributors first, others
// after PriorityLag.
func (r *Repository) notify(sig Signature, seq uint64) {
	r.mu.Lock()
	subs := append([]subscription(nil), r.subs[sig.SKU]...)
	lag := r.PriorityLag
	contrib := make(map[string]bool, len(subs))
	for _, s := range subs {
		contrib[s.pseudonym] = r.contrib[s.pseudonym]
	}
	r.mu.Unlock()

	for _, s := range subs {
		isContrib := contrib[s.pseudonym]
		n := Notification{Signature: sig, Seq: seq, Priority: isContrib}
		mNotifies.Inc()
		if isContrib || lag == 0 {
			s.fn(n)
			continue
		}
		sub := s
		time.AfterFunc(lag, func() { sub.fn(n) })
	}
}

// Fetch lists cleared signatures for a SKU, newest first.
func (r *Repository) Fetch(sku string) []Signature {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Signature
	for _, s := range r.bySKU[sku] {
		if !s.Quarantined {
			out = append(out, *s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Submitted.After(out[j].Submitted) })
	return out
}

// SKUs lists SKUs with at least one signature (cleared or not).
func (r *Repository) SKUs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.bySKU))
	for sku, sigs := range r.bySKU {
		if len(sigs) > 0 {
			out = append(out, sku)
		}
	}
	sort.Strings(out)
	return out
}

// Stats reports totals for diagnostics.
func (r *Repository) Stats() (total, quarantined int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.byID {
		total++
		if s.Quarantined {
			quarantined++
		}
	}
	return total, quarantined
}
