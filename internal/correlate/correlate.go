// Package correlate is the journal's one trace → chain correlator. One
// journal subscription, drained by one resilience.Loop, folds traced
// events into one bounded table of causal chains, and several observers
// read the same chains: the SLO tracker times each detect→enforce
// chain, the forensics capturer pins each incident-opening chain into a
// durable record. Each observer keeps only its own predicate (which
// events open a chain for it, when it lets go) and its own output.
//
// A trace that begins at a device event is parked, by value, until an
// observer opens a chain on it: a device event is the one root a
// detection or a stage can follow on its own trace. The chain then
// starts from the parked events, so the tracker times it from the
// device event that began it and the capturer pins the precursors of
// its incident. A parked trace is forgotten once the longest observer
// horizon has passed, or when ParkedCap newer ones push it out; a chain
// is dropped once no observer holds it. Traces rooted anywhere else
// (an environment tick, an operator command) cost nothing until they
// open a chain.
package correlate

import (
	"slices"
	"sync"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/resilience"
)

const (
	// MaxEvents caps the events a chain retains: the head is kept and
	// the overflow counted in Chain.Truncated.
	MaxEvents = 512
	// ParkedCap bounds the parked traces. One arrives per authenticated
	// management command, so their number is the request rate × the
	// horizon; the ones that matter are joined within the same reaction
	// (microseconds later), so the most recent few thousand lose nothing
	// but precursors of chains that would have been late anyway.
	ParkedCap = 4096
	// tapBuffer is the journal subscription backlog, in events.
	tapBuffer = 4096
)

// Observer is one reader of the chains. Every method runs on the
// correlator's pass, under its lock, in journal order.
type Observer interface {
	// Opens reports whether e needs a chain for this observer on a
	// trace nobody holds; parked are the trace's parked events.
	Opens(parked []journal.Event, e journal.Event) bool
	// Fold hands over the next event of c, retained at c.Events[i]
	// (i < 0: past MaxEvents). at is when the correlator first saw it —
	// for a parked event, when its trace was parked. Fold takes and
	// lets go of c through Chain.Hold and Chain.Holds.
	Fold(c *Chain, e journal.Event, i int, at time.Time)
	// Expire is told that h is due (or flushed); the correlator drops
	// h when it returns.
	Expire(c *Chain, h *Hold)
	// Forget is told of a parked trace that leaves the park without a
	// chain: it outlived the horizon, or newer ones pushed it out.
	Forget(parked []journal.Event)
}

// Hold is one observer's claim on a chain.
type Hold struct {
	// From indexes the event of Chain.Events that opened the
	// observer's view of the chain.
	From int
	// Due is when the sweep expires the hold, unless the observer
	// moves it.
	Due time.Time
	// Data is the observer's own state for the chain.
	Data any
}

// Chain is one trace's events, shared by the observers that hold it.
type Chain struct {
	TraceID uint64
	// Events is the retained head of the trace, in journal order.
	Events []journal.Event
	// Truncated counts the events past MaxEvents.
	Truncated int
	// Severity is the highest severity of all its events, retained or not.
	Severity journal.Severity
	// Holds are the observers' claims on it; an observer lets go by
	// deleting its own.
	Holds map[Observer]*Hold
}

// Hold makes o a holder of c.
func (c *Chain) Hold(o Observer, h *Hold) {
	if c.Holds == nil {
		c.Holds = make(map[Observer]*Hold, 2)
	}
	c.Holds[o] = h
}

// append retains e, or counts it past MaxEvents (false).
func (c *Chain) append(e journal.Event) bool {
	c.Severity = max(c.Severity, e.Severity)
	if len(c.Events) == MaxEvents {
		c.Truncated++
		return false
	}
	c.Events = append(c.Events, e)
	return true
}

// parked is a parked trace: its device event, by value, or — once a
// second event joins it — a chain nobody holds yet. It fits the park's
// map slot, so parking a device event allocates nothing.
type parked struct {
	c  *Chain
	at int64 // when it was parked, correlator clock, UnixNano
	e  journal.Event
}

// events lists a parked trace's events (into buf for a lone one).
func (p *parked) events(buf *[1]journal.Event) []journal.Event {
	if p.c != nil {
		return p.c.Events
	}
	buf[0] = p.e
	return buf[:]
}

type key struct {
	j     *journal.Journal
	clock resilience.Clock
}

var (
	sharedMu sync.Mutex
	shared   = map[key]*Correlator{}
)

// Correlator is the chain table of one journal (per clock: every plane
// of a process uses the system clock, so that is one per journal).
type Correlator struct {
	key key
	sub *journal.Subscription

	mu        sync.Mutex
	observers []Observer
	horizon   time.Duration // the longest any observer asked for
	chains    map[uint64]*Chain
	park      *resilience.Recent[uint64, parked]
	buf       [1]journal.Event

	// loop and every are guarded by sharedMu.
	loop  *resilience.Loop
	every time.Duration // the shortest sweep period any observer asked for
}

// Attach makes o an observer of j's correlator, creating it on first
// use: the first observer subscribes to j and starts the loop. horizon
// is how long a parked trace can still matter to o; every is how often
// o wants the sweep.
func Attach(j *journal.Journal, clock resilience.Clock, o Observer, horizon, every time.Duration) *Correlator {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	k := key{j, clock}
	r := shared[k]
	if r == nil {
		r = &Correlator{
			key:    k,
			sub:    j.Subscribe(tapBuffer),
			chains: make(map[uint64]*Chain),
			park:   resilience.NewRecent[uint64, parked](ParkedCap),
		}
		shared[k] = r
	}
	r.mu.Lock()
	r.observers = append(r.observers, o)
	r.horizon = max(r.horizon, horizon)
	r.mu.Unlock()
	if r.loop == nil || every < r.every {
		if r.loop != nil {
			r.loop.Stop()
		}
		r.loop, r.every = &resilience.Loop{}, every
		r.loop.Start(clock, every, r.sub.Wait(), r.pass)
	}
	return r
}

// Detach removes o after draining the tap. With flush, o's holds
// expire first (the shutdown flush that lets a capturer seal what is
// still open); otherwise they are just let go. The last observer to
// leave stops the loop and closes the tap. Idempotent.
func (r *Correlator) Detach(o Observer, flush bool) {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	r.mu.Lock()
	k := slices.Index(r.observers, o)
	if k < 0 {
		r.mu.Unlock()
		return
	}
	r.drainLocked()
	for _, c := range r.chains {
		if h := c.Holds[o]; h != nil && flush {
			o.Expire(c, h)
		}
		delete(c.Holds, o)
		r.dropIfFree(c)
	}
	r.observers = slices.Delete(r.observers, k, k+1)
	last := len(r.observers) == 0
	r.mu.Unlock()
	if last {
		r.loop.Stop()
		r.sub.Close()
		delete(shared, r.key)
	}
}

// pass drains the tap and folds it, then (on a tick) sweeps. The drain
// happens under r.mu, so a pass on the loop and a Sync on a caller fold
// their batches in journal order.
func (r *Correlator) pass(sweep bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.drainLocked()
	if sweep {
		r.sweepLocked(r.key.clock.Now())
	}
}

// Sync runs one tick's pass on the caller: a deterministic barrier for
// tests and for the SLO watchdog's evaluation tick.
func (r *Correlator) Sync() { r.pass(true) }

// View runs fn under the lock every observer callback runs under, so an
// observer can read its own state, and call Each and ParkedLen.
func (r *Correlator) View(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn()
}

// Each calls fn for every chain o holds. Call it inside View.
func (r *Correlator) Each(o Observer, fn func(*Chain, *Hold)) {
	for _, c := range r.chains {
		if h := c.Holds[o]; h != nil {
			fn(c, h)
		}
	}
}

// ParkedLen reports the parked traces, each begun at a device event.
// Call it inside View.
func (r *Correlator) ParkedLen() int { return r.park.Len() }

// TapEvicted reports the journal events the shared tap dropped while
// the loop lagged (drop-oldest).
func (r *Correlator) TapEvicted() uint64 { return r.sub.Evicted() }

// TapPending reports the journal events waiting in the shared tap.
func (r *Correlator) TapPending() int { return r.sub.Pending() }

func (r *Correlator) drainLocked() {
	events := r.sub.Drain()
	now := r.key.clock.Now()
	for _, e := range events {
		r.fold(e, now)
	}
}

// fold appends e to its trace's chain. On a trace nobody holds, e is
// parked (if its trace began at a device event) unless an observer
// opens a chain on it; the chain then hands the parked events over
// first.
func (r *Correlator) fold(e journal.Event, now time.Time) {
	if e.TraceID == 0 {
		return // routine, untraced traffic is no chain
	}
	c := r.chains[e.TraceID]
	if c == nil {
		p, ok := r.park.Get(e.TraceID)
		var earlier []journal.Event
		if ok {
			earlier = p.events(&r.buf)
		}
		opens := false
		for _, o := range r.observers {
			opens = opens || o.Opens(earlier, e)
		}
		switch {
		case !opens && p.c != nil:
			p.c.append(e)
			return
		case !opens && ok: // a second event: the parked trace becomes a chain
			c = &Chain{TraceID: e.TraceID}
			c.append(p.e)
			c.append(e)
			r.park.Put(e.TraceID, parked{c: c, at: p.at})
			return
		case !opens:
			if e.Type == journal.TypeDeviceEvent {
				r.put(e.TraceID, parked{at: now.UnixNano(), e: e})
			}
			return
		}
		if c = p.c; c == nil {
			c = &Chain{TraceID: e.TraceID}
			if ok {
				c.append(p.e)
			}
		}
		r.park.Delete(e.TraceID)
		r.chains[e.TraceID] = c
		at := time.Unix(0, p.at)
		for i, pe := range c.Events {
			for _, o := range r.observers {
				o.Fold(c, pe, i, at)
			}
		}
	}
	i := -1
	if c.append(e) {
		i = len(c.Events) - 1
	}
	for _, o := range r.observers {
		o.Fold(c, e, i, now)
	}
	r.dropIfFree(c)
}

// put parks a trace; at capacity the oldest one still parked goes.
func (r *Correlator) put(trace uint64, p parked) {
	_, oldest, _ := r.park.Oldest()
	if r.park.Put(trace, p) {
		r.forget(oldest)
	}
}

func (r *Correlator) forget(p parked) {
	for _, o := range r.observers {
		o.Forget(p.events(&r.buf))
	}
}

// dropIfFree drops c once nobody holds it: later events of its trace
// start afresh.
func (r *Correlator) dropIfFree(c *Chain) {
	if len(c.Holds) == 0 {
		delete(r.chains, c.TraceID)
	}
}

// sweepLocked forgets the parked traces past the horizon and expires
// the holds that are due.
func (r *Correlator) sweepLocked(now time.Time) {
	for {
		trace, p, ok := r.park.Oldest()
		if !ok || now.Before(time.Unix(0, p.at).Add(r.horizon)) {
			break
		}
		r.park.Delete(trace)
		r.forget(p)
	}
	for _, c := range r.chains {
		for o, h := range c.Holds {
			if !now.Before(h.Due) {
				o.Expire(c, h)
				delete(c.Holds, o)
			}
		}
		r.dropIfFree(c)
	}
}
