package resilience

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/telemetry"
)

// State is a supervised session's health. The numeric order matches
// telemetry.HealthState (0 down, 1 degraded, 2 up), so a state exports
// as a gauge and converts to a health report without a table.
type State int32

// Session states, worst first.
const (
	// Down: supervision has ended (Stop was called). Nothing will
	// reconnect.
	Down State = iota
	// Degraded: no live session; the supervisor is dialing or waiting
	// out a backoff delay. The adapter's degradation policy applies.
	Degraded
	// Up: a session is live.
	Up
)

// String renders the state.
func (s State) String() string {
	switch s {
	case Up:
		return "up"
	case Degraded:
		return "degraded"
	default:
		return "down"
	}
}

// SessionOptions describe one wire to a Session: how to dial it, how
// to serve it, and what to call it in the journal.
type SessionOptions[C io.Closer] struct {
	// Name prefixes every journal line ("dpid 7", a gateway identity).
	Name string
	// Backoff paces redials after a failed dial (zero fields take the
	// Backoff defaults).
	Backoff BackoffOptions
	// Dial opens one connection.
	Dial func() (C, error)
	// Run serves one established session until it dies and returns
	// why. It is entered with the state already Up; closing the
	// connection must make it return.
	Run func(C) error
	// UpEvent and DownEvent are the wire's journal event types.
	UpEvent, DownEvent journal.Type
	// Detail renders the adapter's degradation state ("3 events
	// buffered") for journal lines and health reasons.
	Detail func() string
	// OnStateChange (optional) observes every transition. Calls are
	// serialized and made without any session lock held.
	OnStateChange func(State)
}

// Session supervises one reconnecting connection: dial, serve until
// the session dies, redial — at once after losing a session that
// lasted, under Backoff after a failed dial or a session that did not,
// reset on success — journaling one Warn per outage, until Stop. The
// protocol on the wire belongs to the adapter that supplies Dial and
// Run.
type Session[C io.Closer] struct {
	opts SessionOptions[C]

	mu      sync.Mutex
	conn    C    // valid while live
	live    bool // between up and down
	stopped bool // Stop called: no new goroutines

	state    atomic.Int32
	sessions atomic.Uint64
	warned   bool // supervisor-owned: this outage already has its Warn

	done chan struct{}
	wg   sync.WaitGroup
}

// NewSession builds an idle session in the Degraded state; Connect or
// Start begins supervision.
func NewSession[C io.Closer](opts SessionOptions[C]) *Session[C] {
	s := &Session[C]{opts: opts, done: make(chan struct{})}
	s.state.Store(int32(Degraded))
	return s
}

// Connect dials once on the caller's goroutine, so an unreachable peer
// is reported immediately, and supervises from then on. On success the
// state is already Up when it returns.
func (s *Session[C]) Connect() error {
	conn, err := s.opts.Dial()
	if err != nil {
		return err
	}
	if s.up(conn) {
		s.Go(func() { s.supervise(conn, true) })
	}
	return nil
}

// Start begins supervision without waiting for the first dial.
func (s *Session[C]) Start() {
	var none C
	s.Go(func() { s.supervise(none, false) })
}

// Go runs fn on a goroutine Wait waits for — the adapter's own loops
// share the session's lifetime. It reports false, without running fn,
// once the session has been stopped.
func (s *Session[C]) Go(fn func()) bool {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return false
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		fn()
	}()
	return true
}

// supervise is the one reconnect loop. Every state transition happens
// here (or in Connect, before this goroutine exists), which is what
// serializes OnStateChange.
func (s *Session[C]) supervise(conn C, live bool) {
	defer s.setState(Down)
	bo := NewBackoff(s.opts.Backoff)
	for {
		if !live {
			var ok bool
			if conn, ok = s.redial(bo); !ok || !s.up(conn) {
				return
			}
		}
		live = false
		began := time.Now()
		err := s.opts.Run(conn)
		if !s.down(conn, err) {
			return
		}
		// A session that outlived the delay a failed dial would now
		// cost was a success: the schedule starts over and the redial
		// is immediate. A shorter one — a peer that accepts and drops —
		// is a failed dial by another name, and waits like one.
		if time.Since(began) >= bo.Ceiling() {
			bo.Reset()
		} else if !s.pause(bo) {
			return
		}
	}
}

// redial dials until success or Stop. The first attempt is immediate;
// each failure waits out the next backoff delay.
func (s *Session[C]) redial(bo *Backoff) (conn C, ok bool) {
	for {
		select {
		case <-s.done:
			return conn, false
		default:
		}
		c, err := s.opts.Dial()
		if err == nil {
			return c, true
		}
		s.warnOnce(fmt.Sprintf("dial failed: %v", err))
		if !s.pause(bo) {
			return conn, false
		}
	}
}

// pause waits out the schedule's next delay. It reports false if the
// session was stopped meanwhile.
func (s *Session[C]) pause(bo *Backoff) bool {
	t := time.NewTimer(bo.Next())
	defer t.Stop()
	select {
	case <-s.done:
		return false
	case <-t.C:
		return true
	}
}

// up installs a dialed connection as the live session. It reports
// false (and closes conn) if Stop won the race.
func (s *Session[C]) up(conn C) bool {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		_ = conn.Close()
		return false
	}
	s.conn, s.live = conn, true
	s.mu.Unlock()
	s.warned = false
	journal.RecordTrace(0, s.opts.UpEvent, journal.Info, "",
		fmt.Sprintf("%s: session #%d up (%s)", s.opts.Name, s.sessions.Add(1), s.opts.Detail()))
	s.setState(Up)
	return true
}

// down retires a dead session. It reports false when the loss was a
// deliberate Stop rather than an outage.
func (s *Session[C]) down(conn C, err error) bool {
	var none C
	s.mu.Lock()
	s.conn, s.live = none, false
	stopped := s.stopped
	s.mu.Unlock()
	_ = conn.Close()
	if stopped {
		return false
	}
	s.setState(Degraded)
	s.warnOnce(fmt.Sprintf("session lost: %v", err))
	return true
}

// warnOnce journals the first sign of an outage and stays quiet until
// the next session comes up, however many dials fail in between.
func (s *Session[C]) warnOnce(what string) {
	if s.warned {
		return
	}
	s.warned = true
	journal.RecordTrace(0, s.opts.DownEvent, journal.Warn, "",
		fmt.Sprintf("%s: %s; redialing (%s)", s.opts.Name, what, s.opts.Detail()))
}

func (s *Session[C]) setState(st State) {
	if State(s.state.Swap(int32(st))) != st && s.opts.OnStateChange != nil {
		s.opts.OnStateChange(st)
	}
}

// State reports the session's current health.
func (s *Session[C]) State() State { return State(s.state.Load()) }

// Sessions reports how many sessions have been established, the first
// included.
func (s *Session[C]) Sessions() uint64 { return s.sessions.Load() }

// Current returns the live connection; ok is false while Degraded or
// Down.
func (s *Session[C]) Current() (conn C, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn, s.live
}

// Done is closed once the session has been stopped.
func (s *Session[C]) Done() <-chan struct{} { return s.done }

// Stop ends supervision and closes the live connection, if any.
// Idempotent; Wait returns once every goroutine has exited, and the
// state is Down from then on.
func (s *Session[C]) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	conn, live := s.conn, s.live
	s.mu.Unlock()
	close(s.done)
	if live {
		_ = conn.Close()
	}
}

// Wait blocks until the supervisor and every Go function have exited.
func (s *Session[C]) Wait() { s.wg.Wait() }

// Health is a telemetry.HealthReporter: Up is healthy, Degraded is
// degraded (it heals by itself), Down is down (it will not).
func (s *Session[C]) Health() (telemetry.HealthState, string) {
	switch st := s.State(); st {
	case Up:
		return telemetry.HealthHealthy, ""
	case Degraded:
		return telemetry.HealthDegraded, fmt.Sprintf("session down, reconnecting (%d session(s) so far; %s)",
			s.Sessions(), s.opts.Detail())
	default:
		return telemetry.HealthDown, fmt.Sprintf("supervisor stopped, will not reconnect (%s)", s.opts.Detail())
	}
}
