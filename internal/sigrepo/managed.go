package sigrepo

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/resilience"
	"iotsec/internal/telemetry"
)

// OutboxOp is one queued repository mutation, durable across restarts
// when ManagedOptions.OutboxPath is set.
type OutboxOp struct {
	Op          string `json:"op"` // publish | vote
	SKU         string `json:"sku,omitempty"`
	Rule        string `json:"rule,omitempty"`
	Description string `json:"description,omitempty"`
	SigID       string `json:"sig_id,omitempty"`
	Up          bool   `json:"up,omitempty"`
}

// outboxCap bounds the publish/vote outbox (drop-oldest).
const outboxCap = 256

// ManagedOptions configure a ManagedClient.
type ManagedOptions struct {
	// Backoff parameterizes the reconnect schedule.
	Backoff resilience.BackoffOptions
	// Dial overrides the transport dial (fault-injection tests wrap
	// conns here). Default: net.DialTimeout("tcp", addr, 5s).
	Dial func(addr string) (net.Conn, error)
	// OutboxPath, when set, persists the outbox as JSON so queued
	// submissions survive gateway restarts.
	OutboxPath string
	// SKUs, when set, is consulted at every (re)connect for the SKU
	// set to subscribe — so devices added during an outage get their
	// feeds on the next session without extra bookkeeping.
	SKUs func() []string
	// OnInstall receives each newly seen cleared signature exactly
	// once (live pushes and replays alike, after dedupe).
	OnInstall func(sig Signature, replayed bool)
	// OnStateChange observes link-state transitions.
	OnStateChange func(resilience.State)
}

// ManagedClient is the supervised northbound session of §4.1: a
// resilience.Session owns dial/redial under backoff; on every session
// the client resubscribes each SKU from its cursor, dedupes replayed
// notifications by signature ID so installs are idempotent, and
// queues publishes/votes in a bounded durable outbox while the link is
// down — the northbound mirror of the southbound SwitchAgent. A
// gateway that crashes, loses its uplink, or watches sigrepod restart
// converges back to the exact cleared-signature set with no loss and
// no duplicate installs.
type ManagedClient struct {
	identity string
	opts     ManagedOptions
	sess     *resilience.Session[*Client]

	mu      sync.Mutex
	cursors map[string]uint64 // sku → highest processed clear seq
	seen    map[string]bool   // installed signature IDs (dedupe)
	subs    map[string]bool   // SKUs subscribed at least once

	// Live-stream gap tracking: the server's per-subscriber notify
	// ring is drop-oldest, so a slow consumer can lose LIVE pushes
	// (replays are delivered synchronously and cannot be evicted).
	// liveNext is the next expected live sequence per SKU (head+1 at
	// subscribe time); a live push jumping past it means events were
	// evicted, and the SKU is marked dirty until a fetch resync
	// recovers the missing signatures — the cursor alone cannot, since
	// it advances to the highest seq seen.
	liveNext  map[string]uint64
	dirty     map[string]bool   // SKUs with unrecovered gaps
	gapGen    map[string]uint64 // bumped per detected gap (resync staleness check)
	resyncing map[string]bool   // per-SKU in-flight fetch resync

	// persistMu serializes outbox persistence: enqueue (any caller
	// goroutine), drainOutbox (the supervisor), and Close all persist,
	// and unserialized writers could rename each other's half-written
	// tmp file into place. Snapshotting under the same lock keeps
	// rename order consistent with snapshot recency. A push (enqueue)
	// and a pop (drainOutbox) happen under it too, so the eviction
	// check before a pop cannot be overtaken by a push.
	persistMu sync.Mutex
	outbox    *resilience.Ring[OutboxOp]

	// ready closes once the first session has resubscribed and drained
	// the outbox; DialManaged returns only then.
	ready     chan struct{}
	readyOnce sync.Once

	replayed   atomic.Uint64
	deduped    atomic.Uint64
	delivered  atomic.Uint64 // outbox ops delivered
	gaps       atomic.Uint64 // live-stream gaps detected (fetch-resynced)
	replayNote atomic.Bool   // journal sigrepo-replay once per session
}

// DialManaged establishes a supervised session with the repository.
// The first dial is synchronous so an unreachable repository surfaces
// immediately, and the first session has resubscribed and drained the
// outbox when DialManaged returns; after that, every disconnect is
// redialed under the backoff schedule with cursor-based
// resubscription.
func DialManaged(addr, identity string, opts ManagedOptions) (*ManagedClient, error) {
	if opts.Dial == nil {
		opts.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	m := &ManagedClient{
		identity:  identity,
		opts:      opts,
		cursors:   make(map[string]uint64),
		seen:      make(map[string]bool),
		subs:      make(map[string]bool),
		liveNext:  make(map[string]uint64),
		dirty:     make(map[string]bool),
		gapGen:    make(map[string]uint64),
		resyncing: make(map[string]bool),
		outbox:    resilience.NewRing[OutboxOp](outboxCap),
		ready:     make(chan struct{}),
	}
	m.loadOutbox()
	wasUp := false // this link's contribution to the mLinkUp gauge
	m.sess = resilience.NewSession(resilience.SessionOptions[*Client]{
		Name:    identity,
		Backoff: opts.Backoff,
		Dial: func() (*Client, error) {
			conn, err := opts.Dial(addr)
			if err != nil {
				return nil, err
			}
			// The push handler is pinned here, before the client's read
			// goroutine starts.
			return NewClient(conn, identity, m.handlePush), nil
		},
		Run:       m.run,
		UpEvent:   journal.TypeSigrepoUp,
		DownEvent: journal.TypeSigrepoDown,
		Detail: func() string {
			return fmt.Sprintf("outbox %d queued, %d gaps", m.OutboxDepth(), m.Gaps())
		},
		OnStateChange: func(st resilience.State) {
			// Calls are serialized, so wasUp needs no lock.
			if st == resilience.Up {
				wasUp = true
				mLinkReconnects.Inc()
				mLinkUp.Inc()
			} else if wasUp {
				wasUp = false
				mLinkUp.Dec()
			}
			if opts.OnStateChange != nil {
				opts.OnStateChange(st)
			}
		},
	})
	if err := m.sess.Connect(); err != nil {
		return nil, fmt.Errorf("sigrepo: dial %s: %w", addr, err)
	}
	<-m.ready
	return m, nil
}

// run is one session: catch up, then stay until the connection dies.
func (m *ManagedClient) run(c *Client) error {
	m.resume(c)
	m.readyOnce.Do(func() { close(m.ready) })
	<-c.Done()
	return c.Err()
}

// resume catches a fresh session up (the Session has already
// journaled sigrepo-up, so the replay events that follow are ordered
// after it): resubscribe every known SKU from its cursor, repair any
// SKU with an unrecovered live-stream gap, then drain the outbox.
func (m *ManagedClient) resume(c *Client) {
	m.replayNote.Store(false)
	m.mu.Lock()
	skus := make(map[string]bool, len(m.subs))
	for sku := range m.subs {
		skus[sku] = true
	}
	m.mu.Unlock()
	if m.opts.SKUs != nil {
		for _, sku := range m.opts.SKUs() {
			if sku != "" {
				skus[sku] = true
			}
		}
	}
	ordered := make([]string, 0, len(skus))
	for sku := range skus {
		ordered = append(ordered, sku)
	}
	sort.Strings(ordered)
	for _, sku := range ordered {
		m.mu.Lock()
		since := m.cursors[sku] // 0 for a never-seen SKU → full backfill
		m.mu.Unlock()
		head, err := c.SubscribeSince(sku, since)
		if err != nil {
			if errors.Is(err, ErrRemote) {
				continue // repository rejected the SKU; not a link problem
			}
			c.Close() // transport death: supervisor redials
			return
		}
		m.mu.Lock()
		m.subs[sku] = true
		// Live events for this session start at head+1; anything after
		// that arriving out of sequence means the server evicted pushes.
		m.liveNext[sku] = head + 1
		m.mu.Unlock()
	}
	// SKUs whose gap resync never completed (the link died first) are
	// repaired now, before the session is trusted: the cursor may have
	// advanced past the evicted events, so only a fetch recovers them.
	m.mu.Lock()
	var dirty []string
	for sku := range m.dirty {
		dirty = append(dirty, sku)
	}
	m.mu.Unlock()
	sort.Strings(dirty)
	for _, sku := range dirty {
		if err := m.resync(c, sku); err != nil && !errors.Is(err, ErrRemote) {
			c.Close() // transport death mid-repair: SKU stays dirty, supervisor redials
			return
		}
	}
	m.drainOutbox(c)
}

// handlePush advances the SKU cursor, dedupes by signature ID, checks
// the live stream for sequence gaps (server-side ring evictions), and
// hands genuinely new signatures to OnInstall. Runs on the session's
// read goroutine, so gap recovery is dispatched to a separate
// goroutine (a Fetch here would deadlock against the reply reader).
func (m *ManagedClient) handlePush(p Push) {
	sku := p.Signature.SKU
	m.mu.Lock()
	if p.Seq > m.cursors[sku] {
		m.cursors[sku] = p.Seq
	}
	gap := false
	if want, tracked := m.liveNext[sku]; tracked && !p.Replay {
		if p.Seq > want {
			// Live pushes are per-SKU contiguous (every cleared event
			// notifies); a jump means the server evicted pushes for
			// this slow consumer. The cursor has already moved past
			// them, so only a fetch resync can recover the signatures.
			gap = true
			m.dirty[sku] = true
			m.gapGen[sku]++
		}
		if p.Seq >= want {
			m.liveNext[sku] = p.Seq + 1
		}
	}
	dup := m.seen[p.Signature.ID]
	if !dup {
		m.seen[p.Signature.ID] = true
	}
	m.mu.Unlock()
	if gap {
		m.gaps.Add(1)
		mLinkGaps.Inc()
		journal.RecordTrace(0, journal.TypeSigrepoReplay, journal.Warn, sku,
			fmt.Sprintf("%s: live notify gap on %s (got seq %d); scheduling fetch resync",
				m.identity, sku, p.Seq))
		m.triggerResync(sku)
	}
	if p.Replay {
		m.replayed.Add(1)
		mLinkReplayed.Inc()
		if m.replayNote.CompareAndSwap(false, true) {
			journal.RecordTrace(0, journal.TypeSigrepoReplay, journal.Info, p.Signature.SKU,
				fmt.Sprintf("%s: cursor replay resumed at seq %d (%s)", m.identity, p.Seq, p.Signature.ID))
		}
	}
	if dup {
		m.deduped.Add(1)
		mLinkDeduped.Inc()
		return
	}
	if m.opts.OnInstall != nil {
		m.opts.OnInstall(p.Signature, p.Replay)
	}
}

// triggerResync starts (at most one per SKU) a background fetch
// resync for a gap detected on the live stream. Runs off the read
// goroutine so the Fetch round-trip doesn't deadlock the reply path.
func (m *ManagedClient) triggerResync(sku string) {
	c, live := m.sess.Current()
	m.mu.Lock()
	defer m.mu.Unlock()
	if !live || m.resyncing[sku] {
		// Already repairing, or no session: the SKU stays dirty and
		// resume repairs it on the next (re)connect.
		return
	}
	// Go refuses once Close has begun; the SKU then stays dirty too.
	m.resyncing[sku] = m.sess.Go(func() {
		err := m.resync(c, sku)
		m.mu.Lock()
		delete(m.resyncing, sku)
		// A gap detected after this resync's fetch snapshot re-marked
		// the SKU dirty; pick it up rather than leaving it for the
		// next reconnect.
		again := err == nil && m.dirty[sku]
		m.mu.Unlock()
		if again {
			m.triggerResync(sku)
		}
	})
}

// resync repairs a live-stream gap by fetching the SKU's full cleared
// set and installing whatever dedupe hasn't seen. Over-delivery is
// safe (installs dedupe by signature ID); under-delivery is not, so
// the SKU is cleared from the dirty set only once a fetch taken after
// the last detected gap succeeds — if the link dies first, the next
// resume retries. Must not run on the session's read goroutine.
func (m *ManagedClient) resync(c *Client, sku string) error {
	for {
		m.mu.Lock()
		gen := m.gapGen[sku]
		m.mu.Unlock()
		sigs, err := c.Fetch(sku)
		if err != nil {
			return err
		}
		recovered := 0
		for _, sig := range sigs {
			m.mu.Lock()
			if sig.ClearSeq > m.cursors[sku] {
				m.cursors[sku] = sig.ClearSeq
			}
			dup := m.seen[sig.ID]
			if !dup {
				m.seen[sig.ID] = true
			}
			m.mu.Unlock()
			if dup {
				continue
			}
			recovered++
			if m.opts.OnInstall != nil {
				m.opts.OnInstall(sig, true)
			}
		}
		m.mu.Lock()
		done := m.gapGen[sku] == gen
		if done {
			delete(m.dirty, sku)
		}
		m.mu.Unlock()
		journal.RecordTrace(0, journal.TypeSigrepoReplay, journal.Info, sku,
			fmt.Sprintf("%s: gap resync on %s recovered %d signature(s)", m.identity, sku, recovered))
		if done {
			return nil
		}
		// Another gap landed while fetching; snapshot again.
	}
}

// drainOutbox redelivers queued mutations in FIFO order. Each op stays
// at the head of the ring — counted by OutboxDepth and present in the
// persisted file — until its delivery is settled: then it is popped
// and the outbox persisted again. Repository rejections (ErrRemote —
// e.g. a duplicate vote whose first attempt did land before the
// connection died) are final and dropped; a transport failure leaves
// the op at the head for the next session, so order holds. If the
// ring evicted while an op was in flight, the in-flight op (the
// oldest) was the first evicted, so there is nothing to pop.
// Publishes are exactly-once end to end because the repository
// dedupes identical (contributor, SKU, rule) resubmissions.
func (m *ManagedClient) drainOutbox(c *Client) {
	deliveredN := 0
	for {
		op, ok := m.outbox.Peek()
		if !ok {
			break
		}
		evicted := m.outbox.Evicted()
		err := m.deliverOp(c, op)
		if err != nil && !errors.Is(err, ErrRemote) {
			break
		}
		if err != nil {
			journal.RecordTrace(0, journal.TypeSigrepoReplay, journal.Warn, op.SKU,
				fmt.Sprintf("%s: outbox %s rejected by repository: %v", m.identity, op.Op, err))
		} else {
			deliveredN++
			m.delivered.Add(1)
			mOutboxDelivered.Inc()
		}
		m.persistMu.Lock()
		if m.outbox.Evicted() == evicted {
			m.outbox.Pop()
		}
		m.persistLocked()
		m.persistMu.Unlock()
	}
	m.persistOutbox()
	if deliveredN > 0 {
		journal.RecordTrace(0, journal.TypeSigrepoReplay, journal.Info, "",
			fmt.Sprintf("%s: outbox drained, %d op(s) delivered", m.identity, deliveredN))
	}
}

func (m *ManagedClient) deliverOp(c *Client, op OutboxOp) error {
	switch op.Op {
	case "publish":
		_, err := c.Publish(op.SKU, op.Rule, op.Description)
		return err
	case "vote":
		_, err := c.Vote(op.SigID, op.Up)
		return err
	default:
		return nil // unknown op in a stale outbox file: drop
	}
}

// Publish shares a signature. With the link up it is delivered
// immediately; otherwise (or on a transport failure mid-call) it is
// queued in the outbox and delivered on reconnect, in which case the
// returned signature is nil with a nil error.
func (m *ManagedClient) Publish(sku, rule, description string) (*Signature, error) {
	if err := Validate(sku, rule); err != nil {
		return nil, err
	}
	if c, live := m.sess.Current(); live {
		sig, err := c.Publish(sku, rule, description)
		if err == nil {
			return sig, nil
		}
		if errors.Is(err, ErrRemote) {
			return nil, err
		}
		// Transport failure: ambiguous whether the publish landed; the
		// repository's idempotent-republish dedup makes the retry safe.
	}
	m.enqueue(OutboxOp{Op: "publish", SKU: sku, Rule: rule, Description: description})
	return nil, nil
}

// Vote casts a verdict. Queued like Publish when the link is down; a
// redelivered vote whose first attempt landed is rejected by the
// repository as a duplicate and dropped, preserving effect-once.
func (m *ManagedClient) Vote(sigID string, up bool) (*Signature, error) {
	if c, live := m.sess.Current(); live {
		sig, err := c.Vote(sigID, up)
		if err == nil {
			return sig, nil
		}
		if errors.Is(err, ErrRemote) {
			return nil, err
		}
	}
	m.enqueue(OutboxOp{Op: "vote", SigID: sigID, Up: up})
	return nil, nil
}

// Fetch proxies to the live session (errors while degraded).
func (m *ManagedClient) Fetch(sku string) ([]Signature, error) {
	c, live := m.sess.Current()
	if !live {
		return nil, ErrClosed
	}
	return c.Fetch(sku)
}

// Watch adds a SKU to the subscription set. With the link up it
// subscribes immediately (from cursor 0 → full backfill); while
// degraded the SKU is picked up by the next session.
func (m *ManagedClient) Watch(sku string) error {
	c, live := m.sess.Current()
	m.mu.Lock()
	already := m.subs[sku]
	m.subs[sku] = true
	since := m.cursors[sku]
	m.mu.Unlock()
	if already || !live {
		return nil
	}
	head, err := c.SubscribeSince(sku, since)
	if err != nil && !errors.Is(err, ErrRemote) {
		c.Close() // supervisor will resubscribe everything on reconnect
	}
	if err == nil {
		m.mu.Lock()
		m.liveNext[sku] = head + 1
		m.mu.Unlock()
	}
	return err
}

func (m *ManagedClient) enqueue(op OutboxOp) {
	m.persistMu.Lock()
	defer m.persistMu.Unlock()
	if m.outbox.Push(op) {
		mOutboxEvict.Inc()
	}
	m.persistLocked()
}

// persistOutbox writes the pending ops to OutboxPath (tmp + rename).
// persistMu serializes concurrent persists (enqueue callers, the
// supervisor's drain, Close): without it two writers share one tmp
// path and can rename a partially written file into place, corrupting
// the durable outbox. Snapshot-under-lock also guarantees the last
// rename carries the newest state. The depth gauge lives in the
// per-link ExportTelemetry collector, not here — a process-global
// gauge Set() from several links would just overwrite itself.
func (m *ManagedClient) persistOutbox() {
	m.persistMu.Lock()
	defer m.persistMu.Unlock()
	m.persistLocked()
}

// persistLocked is persistOutbox with persistMu held.
func (m *ManagedClient) persistLocked() {
	if m.opts.OutboxPath == "" {
		return
	}
	ops := m.outbox.Snapshot()
	data, err := json.MarshalIndent(ops, "", "  ")
	if err != nil {
		return
	}
	tmp := m.opts.OutboxPath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, m.opts.OutboxPath)
}

// loadOutbox restores queued ops from a previous run.
func (m *ManagedClient) loadOutbox() {
	if m.opts.OutboxPath == "" {
		return
	}
	data, err := os.ReadFile(m.opts.OutboxPath)
	if err != nil {
		return
	}
	var ops []OutboxOp
	if err := json.Unmarshal(data, &ops); err != nil {
		return
	}
	for _, op := range ops {
		if m.outbox.Push(op) {
			mOutboxEvict.Inc()
		}
	}
}

// State reports the link's current health: Up (pushes stream, the
// outbox is empty or draining), Degraded (redialing; publishes and
// votes queue in the outbox, missed signatures come back by cursor
// replay) or Down (closed).
func (m *ManagedClient) State() resilience.State { return m.sess.State() }

// Cursors returns a copy of every SKU cursor.
func (m *ManagedClient) Cursors() map[string]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]uint64, len(m.cursors))
	for k, v := range m.cursors {
		out[k] = v
	}
	return out
}

// OutboxDepth reports queued, undelivered mutations.
func (m *ManagedClient) OutboxDepth() int { return m.outbox.Len() }

// Reconnects reports session establishments (including the first).
func (m *ManagedClient) Reconnects() uint64 { return m.sess.Sessions() }

// Replayed reports cursor-replayed notifications received.
func (m *ManagedClient) Replayed() uint64 { return m.replayed.Load() }

// Deduped reports duplicate notifications suppressed.
func (m *ManagedClient) Deduped() uint64 { return m.deduped.Load() }

// OutboxDelivered reports outbox ops delivered after reconnects.
func (m *ManagedClient) OutboxDelivered() uint64 { return m.delivered.Load() }

// Gaps reports live-stream sequence gaps detected (each repaired by a
// fetch resync).
func (m *ManagedClient) Gaps() uint64 { return m.gaps.Load() }

// Close stops the supervisor, persists the outbox, and marks the
// link down. Idempotent.
func (m *ManagedClient) Close() {
	m.sess.Stop()
	m.sess.Wait()
	m.persistOutbox()
}

// ExportTelemetry registers a scrape-time collector exposing the
// link's state, cursors, and outbox under iotsec_sigrepo_link_*
// gauges labeled by link name (re-registering for the same link
// replaces the previous collector).
func (m *ManagedClient) ExportTelemetry(reg *telemetry.Registry, link string) {
	if reg == nil {
		reg = telemetry.Default
	}
	reg.RegisterCollector("sigrepo-link:"+link, func(emit func(string, telemetry.Kind, string, telemetry.Labels, float64)) {
		base := telemetry.Labels{{Key: "link", Value: link}}
		emit("iotsec_sigrepo_link_state", telemetry.KindGauge,
			"Managed link state (0 down, 1 degraded, 2 up).", base, float64(m.State()))
		emit("iotsec_sigrepo_link_outbox_depth", telemetry.KindGauge,
			"Queued publish/vote operations awaiting delivery.", base, float64(m.OutboxDepth()))
		emit("iotsec_sigrepo_link_reconnects_total", telemetry.KindCounter,
			"Session establishments for this link.", base, float64(m.Reconnects()))
		emit("iotsec_sigrepo_link_replayed_total", telemetry.KindCounter,
			"Cursor-replayed notifications received on this link.", base, float64(m.Replayed()))
		emit("iotsec_sigrepo_link_dedup_total", telemetry.KindCounter,
			"Duplicate notifications suppressed on this link.", base, float64(m.Deduped()))
		emit("iotsec_sigrepo_link_outbox_delivered_total", telemetry.KindCounter,
			"Outbox operations delivered on this link.", base, float64(m.OutboxDelivered()))
		emit("iotsec_sigrepo_link_gaps_total", telemetry.KindCounter,
			"Live-stream sequence gaps detected on this link (fetch-resynced).", base, float64(m.Gaps()))
		cursors := m.Cursors()
		skus := make([]string, 0, len(cursors))
		for sku := range cursors {
			skus = append(skus, sku)
		}
		sort.Strings(skus)
		for _, sku := range skus {
			emit("iotsec_sigrepo_link_cursor", telemetry.KindGauge,
				"Highest processed cleared-event sequence per SKU.",
				telemetry.Labels{{Key: "link", Value: link}, {Key: "sku", Value: sku}},
				float64(cursors[sku]))
		}
	})
}

// RegisterHealth registers the link in the component-health registry
// as "sigrepo-link:<link>": healthy while up, degraded while
// redialing with the outbox queueing, down once closed. The northbound
// link is advisory for a gateway (enforcement works without crowd
// updates), so callers normally pass critical=false — readiness then
// reports it without gating on it.
func (m *ManagedClient) RegisterHealth(h *telemetry.HealthRegistry, link string, critical bool) {
	h.Register("sigrepo-link:"+link, critical, m.sess.Health)
}
