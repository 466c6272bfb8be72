package resilience

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/telemetry"
)

// fakeConn is a connection whose only behaviour is dying.
type fakeConn struct {
	once sync.Once
	dead chan struct{}
}

func (c *fakeConn) Close() error {
	c.once.Do(func() { close(c.dead) })
	return nil
}

// sessionHarness is a Session over a scripted flaky dialer: script[i]
// says whether the i-th dial succeeds (dials past the script fail).
// It records when each dial happened and every state transition.
type sessionHarness struct {
	t    *testing.T
	sess *Session[*fakeConn]
	up   journal.Type
	down journal.Type
	from uint64 // journal sequence when the harness was built

	mu     sync.Mutex
	script []bool
	dials  []time.Time
	conns  []*fakeConn
	states []State
}

func newSessionHarness(t *testing.T, name string, bo BackoffOptions, script []bool) *sessionHarness {
	bo.NoJitter = true
	h := &sessionHarness{
		t: t, script: script,
		up:   journal.Type("test-up:" + name),
		down: journal.Type("test-down:" + name),
	}
	h.from, _ = journal.Default.Stats()
	h.sess = NewSession(SessionOptions[*fakeConn]{
		Name:    name,
		Backoff: bo,
		Dial: func() (*fakeConn, error) {
			h.mu.Lock()
			defer h.mu.Unlock()
			i := len(h.dials)
			h.dials = append(h.dials, time.Now())
			if i >= len(h.script) || !h.script[i] {
				return nil, errors.New("connection refused")
			}
			c := &fakeConn{dead: make(chan struct{})}
			h.conns = append(h.conns, c)
			return c, nil
		},
		Run: func(c *fakeConn) error {
			<-c.dead
			return errors.New("peer went away")
		},
		UpEvent:   h.up,
		DownEvent: h.down,
		Detail:    func() string { return "nothing buffered" },
		OnStateChange: func(s State) {
			h.mu.Lock()
			h.states = append(h.states, s)
			h.mu.Unlock()
		},
	})
	return h
}

func (h *sessionHarness) waitFor(what string, cond func() bool) {
	h.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			h.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func (h *sessionHarness) waitSessions(n uint64) {
	h.t.Helper()
	h.waitFor("session to come up", func() bool { return h.sess.Sessions() >= n && h.sess.State() == Up })
}

// kill ends the n-th established session (0-based) from the far side,
// once it has been up for at least lived, and reports when.
func (h *sessionHarness) kill(n int, lived time.Duration) time.Time {
	h.mu.Lock()
	c := h.conns[n]
	h.mu.Unlock()
	time.Sleep(lived)
	at := time.Now()
	_ = c.Close()
	return at
}

// dialAt reports when the i-th dial happened, waiting for it.
func (h *sessionHarness) dialAt(i int) time.Time {
	h.t.Helper()
	var at time.Time
	h.waitFor("dial", func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		if i < len(h.dials) {
			at = h.dials[i]
			return true
		}
		return false
	})
	return at
}

// journaled counts this harness's down-type events at one severity.
func (h *sessionHarness) journaled(sev journal.Severity) int {
	n := 0
	for _, e := range journal.Default.Snapshot(journal.Filter{Type: h.down}) {
		if e.Seq > h.from && e.Severity == sev {
			n++
		}
	}
	return n
}

func TestSession(t *testing.T) {
	const base = 50 * time.Millisecond
	cases := []struct {
		name   string
		bo     BackoffOptions
		script []bool
		// drive runs the scenario; the harness's session has been
		// started. It must leave the session stopped or stoppable.
		drive      func(t *testing.T, h *sessionHarness)
		wantWarn   int
		wantStates []State
	}{
		{
			name:   "first redial is immediate, later ones back off",
			bo:     BackoffOptions{Base: base},
			script: []bool{true, false, false, true},
			drive: func(t *testing.T, h *sessionHarness) {
				h.waitSessions(1)
				lost := h.kill(0, base)
				if d := h.dialAt(1).Sub(lost); d >= base {
					t.Errorf("first redial came %v after the loss, want at once (< %v)", d, base)
				}
				if d := h.dialAt(2).Sub(h.dialAt(1)); d < base {
					t.Errorf("second redial after %v, want >= %v", d, base)
				}
				if d := h.dialAt(3).Sub(h.dialAt(2)); d < 2*base {
					t.Errorf("third redial after %v, want >= %v", d, 2*base)
				}
				h.waitSessions(2)
			},
			wantWarn:   1,
			wantStates: []State{Up, Degraded, Up, Down},
		},
		{
			name:   "backoff resets after a successful session",
			bo:     BackoffOptions{Base: base},
			script: []bool{true, false, false, true, false, true},
			drive: func(t *testing.T, h *sessionHarness) {
				h.waitSessions(1)
				h.kill(0, base)
				h.waitSessions(2)
				// The second session came up two failed dials into the
				// schedule; it has to outlive the third delay to count.
				h.kill(1, 4*base)
				// Unreset, this wait would be the schedule's third (4×base).
				if d := h.dialAt(5).Sub(h.dialAt(4)); d < base || d >= 3*base {
					t.Errorf("redial in the second outage after %v, want the schedule's first delay (%v)", d, base)
				}
				h.waitSessions(3)
			},
			wantWarn:   2,
			wantStates: []State{Up, Degraded, Up, Degraded, Up, Down},
		},
		{
			name:   "a session that dies at once backs off like a failed dial",
			bo:     BackoffOptions{Base: base},
			script: []bool{true, true, true},
			drive: func(t *testing.T, h *sessionHarness) {
				h.waitSessions(1)
				h.kill(0, 0)
				h.waitSessions(2)
				h.kill(1, 0)
				h.waitSessions(3)
				if d := h.dialAt(1).Sub(h.dialAt(0)); d < base {
					t.Errorf("redial after a stillborn session came after %v, want >= %v", d, base)
				}
				if d := h.dialAt(2).Sub(h.dialAt(1)); d < 2*base {
					t.Errorf("redial after a second stillborn session came after %v, want >= %v", d, 2*base)
				}
			},
			wantWarn:   2,
			wantStates: []State{Up, Degraded, Up, Degraded, Up, Down},
		},
		{
			name: "Stop during a backoff wait returns promptly",
			bo:   BackoffOptions{Base: time.Hour, Cap: time.Hour},
			drive: func(t *testing.T, h *sessionHarness) {
				h.dialAt(0) // failed; the supervisor is now an hour from its next attempt
				stopped := make(chan struct{})
				go func() { h.sess.Stop(); h.sess.Wait(); close(stopped) }()
				select {
				case <-stopped:
				case <-time.After(2 * time.Second):
					t.Fatal("Stop did not interrupt the backoff wait")
				}
			},
			wantWarn:   1,
			wantStates: []State{Down},
		},
		{
			name:   "one Warn per outage however many dials fail",
			bo:     BackoffOptions{Base: time.Millisecond, Cap: time.Millisecond},
			script: []bool{false, false, false, false, false, false, false, false, true},
			drive: func(t *testing.T, h *sessionHarness) {
				h.waitSessions(1)
				if _, ok := h.sess.Current(); !ok {
					t.Error("no current connection while up")
				}
			},
			wantWarn:   1,
			wantStates: []State{Up, Down},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			goroutines := runtime.NumGoroutine()
			h := newSessionHarness(t, tc.name, tc.bo, tc.script)
			h.sess.Start()
			tc.drive(t, h)
			h.sess.Stop()
			h.sess.Stop() // idempotent
			h.sess.Wait()

			if _, ok := h.sess.Current(); ok {
				t.Error("a connection is still current after Stop")
			}
			if st, reason := h.sess.Health(); st != telemetry.HealthDown || reason == "" {
				t.Errorf("health after Stop = %v %q, want down with a reason", st, reason)
			}
			if got := h.journaled(journal.Warn); got != tc.wantWarn {
				t.Errorf("Warn events = %d, want %d", got, tc.wantWarn)
			}
			if got := h.journaled(journal.Critical); got != 0 {
				t.Errorf("Critical events = %d, want none: a session never gives up", got)
			}
			h.mu.Lock()
			states := h.states
			h.mu.Unlock()
			if !reflect.DeepEqual(states, tc.wantStates) {
				t.Errorf("state transitions = %v, want %v", states, tc.wantStates)
			}
			h.waitFor("goroutines to exit", func() bool { return runtime.NumGoroutine() <= goroutines })
		})
	}
}

// TestSessionConnect: the synchronous first dial reports an
// unreachable peer to the caller and starts nothing; a reachable one
// is Up on return.
func TestSessionConnect(t *testing.T) {
	h := newSessionHarness(t, "connect-refused", BackoffOptions{}, nil)
	if err := h.sess.Connect(); err == nil {
		t.Fatal("Connect to a refusing peer returned nil")
	}
	if n := len(h.dials); n != 1 {
		t.Fatalf("dials after a failed Connect = %d, want 1 (no supervisor running)", n)
	}

	h = newSessionHarness(t, "connect-ok", BackoffOptions{}, []bool{true})
	if err := h.sess.Connect(); err != nil {
		t.Fatal(err)
	}
	if st := h.sess.State(); st != Up {
		t.Fatalf("state after Connect = %v, want up", st)
	}
	h.sess.Stop()
	h.sess.Wait()
	if st := h.sess.State(); st != Down {
		t.Fatalf("state after Stop = %v, want down", st)
	}
}
