package resilience

import (
	"runtime"
	"testing"
	"time"
)

const loopEvery = time.Second

// loopHarness is a Loop on a fake clock whose passes are reported on a
// channel; gate, when non-nil, holds each pass until it is fed.
type loopHarness struct {
	t     *testing.T
	clock *FakeClock
	wake  chan struct{}
	seen  chan bool
	gate  chan struct{}
	loop  Loop
}

func (h *loopHarness) start() {
	h.loop.Start(h.clock, loopEvery, h.wake, func(tick bool) {
		h.seen <- tick
		if h.gate != nil {
			<-h.gate
		}
	})
}

// expect waits for the next pass and checks which kind it was.
func (h *loopHarness) expect(tick bool) {
	h.t.Helper()
	select {
	case got := <-h.seen:
		if got != tick {
			h.t.Fatalf("pass(tick=%v), want tick=%v", got, tick)
		}
	case <-time.After(5 * time.Second):
		h.t.Fatalf("no pass(tick=%v) within 5s", tick)
	}
}

// quiet asserts no further pass is pending or arrives.
func (h *loopHarness) quiet() {
	h.t.Helper()
	select {
	case got := <-h.seen:
		h.t.Fatalf("unexpected pass(tick=%v)", got)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestLoop(t *testing.T) {
	cases := []struct {
		name  string
		gated bool
		drive func(h *loopHarness)
	}{
		{
			// Flaky when the ticker is created inside the goroutine: the
			// advance can land before the ticker exists.
			name: "a clock advanced right after Start is seen",
			drive: func(h *loopHarness) {
				h.start()
				h.clock.Advance(loopEvery)
				h.expect(true)
			},
		},
		{
			name: "tick and wake both reach the pass",
			drive: func(h *loopHarness) {
				h.start()
				h.wake <- struct{}{}
				h.expect(false)
				h.clock.Advance(loopEvery)
				h.expect(true)
				h.quiet()
			},
		},
		{
			name:  "a burst of wakes coalesces",
			gated: true,
			drive: func(h *loopHarness) {
				h.start()
				h.wake <- struct{}{}
				h.expect(false) // in the pass, held at the gate
				for i := 0; i < 100; i++ {
					select { // the journal tap's non-blocking notify
					case h.wake <- struct{}{}:
					default:
					}
				}
				close(h.gate)
				h.expect(false) // the whole burst: one more pass
				h.quiet()
			},
		},
		{
			name: "a second Start does nothing",
			drive: func(h *loopHarness) {
				h.start()
				h.start()
				h.clock.Advance(loopEvery)
				h.expect(true)
				h.quiet()
			},
		},
		{
			name:  "Stop on a loop that never started",
			drive: func(h *loopHarness) {},
		},
		{
			name: "Start after Stop does nothing",
			drive: func(h *loopHarness) {
				h.loop.Stop()
				h.start()
				h.clock.Advance(loopEvery)
				h.quiet()
			},
		},
		{
			name:  "Stop during a pass waits for it",
			gated: true,
			drive: func(h *loopHarness) {
				h.start()
				h.clock.Advance(loopEvery)
				h.expect(true) // in the pass, held at the gate
				stopped := make(chan struct{})
				go func() {
					h.loop.Stop()
					close(stopped)
				}()
				select {
				case <-stopped:
					h.t.Fatal("Stop returned while a pass was in flight")
				case <-time.After(20 * time.Millisecond):
				}
				close(h.gate)
				<-stopped
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			goroutines := runtime.NumGoroutine()
			h := &loopHarness{
				t:     t,
				clock: NewFakeClock(time.Unix(0, 0)),
				wake:  make(chan struct{}, 1),
				seen:  make(chan bool, 8), // more than any case leaves unread
			}
			if tc.gated {
				h.gate = make(chan struct{})
			}
			tc.drive(h)
			h.loop.Stop()
			h.loop.Stop() // idempotent

			h.clock.Advance(loopEvery)
			h.quiet() // a stopped loop runs no pass
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > goroutines {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines = %d, want <= %d", runtime.NumGoroutine(), goroutines)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
