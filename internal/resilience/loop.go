package resilience

import (
	"sync"
	"time"
)

// Loop is the one background goroutine behind every periodic plane
// (SLO tracker and watchdog, forensics capturer, controller supervisor,
// both fleet reporters): a ticker, an optional wake channel, one pass
// function, one Stop. The zero value is a loop that has not started.
type Loop struct {
	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	stopped bool
}

// Start runs pass on one goroutine: pass(true) on every tick of a
// ticker taken from clock, pass(false) on every receive from wake (nil
// for owners with no wake source). The ticker exists before Start
// returns, so a clock advanced right after it — a fake one, in tests —
// cannot slip past the first period. A second Start, and a Start after
// Stop, do nothing.
func (l *Loop) Start(clock Clock, every time.Duration, wake <-chan struct{}, pass func(tick bool)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopped || l.done != nil {
		return
	}
	ticker := clock.NewTicker(every)
	stop, done := make(chan struct{}), make(chan struct{})
	l.stop, l.done = stop, done
	go func() {
		defer close(done)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-wake:
				pass(false)
			case <-ticker.C():
				pass(true)
			}
		}
	}()
}

// Stop ends the loop and returns once its goroutine has exited, so
// after any pass in flight: what the owner does next (a final flush, a
// force-seal) cannot race a pass. Idempotent, and safe on a loop that
// never started. A pass must not stop its own loop.
func (l *Loop) Stop() {
	l.mu.Lock()
	if !l.stopped {
		l.stopped = true
		if l.stop != nil {
			close(l.stop)
		}
	}
	done := l.done
	l.mu.Unlock()
	if done != nil {
		<-done
	}
}
