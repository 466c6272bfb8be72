package resilience

import (
	"testing"
	"time"
)

// TestBackoffScheduleNoJitter pins the deterministic exponential
// schedule: Base, Base*2, Base*4, ... clamped at Cap.
func TestBackoffScheduleNoJitter(t *testing.T) {
	cases := []struct {
		name string
		opts BackoffOptions
		want []time.Duration
	}{
		{
			name: "defaults double and cap",
			opts: BackoffOptions{Base: 50 * time.Millisecond, Cap: 300 * time.Millisecond, NoJitter: true},
			want: []time.Duration{
				50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
				300 * time.Millisecond, 300 * time.Millisecond,
			},
		},
		{
			name: "cap below base clamps immediately",
			opts: BackoffOptions{Base: 80 * time.Millisecond, Cap: 40 * time.Millisecond, NoJitter: true},
			want: []time.Duration{40 * time.Millisecond, 40 * time.Millisecond},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bo := NewBackoff(tc.opts)
			for i, want := range tc.want {
				if got := bo.Next(); got != want {
					t.Fatalf("attempt %d: delay = %v, want %v", i, got, want)
				}
			}
		})
	}
}

// TestBackoffJitterBounds checks full jitter stays within [0, ceiling]
// and is deterministic for a fixed seed.
func TestBackoffJitterBounds(t *testing.T) {
	opts := BackoffOptions{Base: 20 * time.Millisecond, Cap: 500 * time.Millisecond, Seed: 42}
	bo := NewBackoff(opts)
	ref := NewBackoff(opts)
	for i := 0; i < 32; i++ {
		ceiling := bo.Ceiling()
		d := bo.Next()
		if d < 0 || d > ceiling {
			t.Fatalf("attempt %d: delay %v outside [0, %v]", i, d, ceiling)
		}
		if ceiling > opts.Cap {
			t.Fatalf("attempt %d: ceiling %v exceeds cap %v", i, ceiling, opts.Cap)
		}
		rd := ref.Next()
		if d != rd {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, d, rd)
		}
	}
}

// TestBackoffResetOnSuccess verifies Reset restarts the schedule at
// Base — the supervisor resets after every successful session.
func TestBackoffResetOnSuccess(t *testing.T) {
	bo := NewBackoff(BackoffOptions{Base: 10 * time.Millisecond, Cap: time.Second, NoJitter: true})
	for i := 0; i < 5; i++ {
		bo.Next()
	}
	if got := bo.Ceiling(); got != 320*time.Millisecond {
		t.Fatalf("ceiling after 5 attempts = %v, want 320ms", got)
	}
	bo.Reset()
	if d := bo.Next(); d != 10*time.Millisecond {
		t.Fatalf("first delay after Reset = %v, want 10ms", d)
	}
}

func TestRingPushDrainOrder(t *testing.T) {
	r := NewRing[int](4)
	for i := 1; i <= 3; i++ {
		if evicted := r.Push(i); evicted {
			t.Fatalf("Push(%d) evicted from non-full ring", i)
		}
	}
	if got := r.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	got := r.Drain()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Drain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Drain[%d] = %d, want %d (oldest first)", i, got[i], want[i])
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len after Drain = %d, want 0", r.Len())
	}
}

func TestRingEvictsOldest(t *testing.T) {
	r := NewRing[int](3)
	for i := 1; i <= 3; i++ {
		r.Push(i)
	}
	if evicted := r.Push(4); !evicted {
		t.Fatal("Push into full ring did not report eviction")
	}
	r.Push(5)
	if got := r.Evicted(); got != 2 {
		t.Fatalf("Evicted = %d, want 2", got)
	}
	got := r.Drain()
	want := []int{3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Drain = %v, want %v (oldest dropped)", got, want)
		}
	}
}

func TestRingDefaultCapacity(t *testing.T) {
	r := NewRing[string](0)
	for i := 0; i < 1024; i++ {
		if r.Push("x") {
			t.Fatalf("eviction before default capacity filled (i=%d)", i)
		}
	}
	if !r.Push("overflow") {
		t.Fatal("expected eviction at default capacity 1024")
	}
}

func TestFakeClockTicker(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	tick := clk.NewTicker(10 * time.Second)
	defer tick.Stop()
	select {
	case <-tick.C():
		t.Fatal("ticker fired before Advance")
	default:
	}
	clk.Advance(10 * time.Second)
	select {
	case ts := <-tick.C():
		if got := ts.Unix(); got != 10 {
			t.Fatalf("tick time = %d, want 10", got)
		}
	default:
		t.Fatal("ticker did not fire after Advance past its period")
	}
	// Multiple overdue periods coalesce (buffered-1 channel).
	clk.Advance(50 * time.Second)
	n := 0
	for {
		select {
		case <-tick.C():
			n++
			continue
		default:
		}
		break
	}
	if n != 1 {
		t.Fatalf("coalesced ticks = %d, want 1", n)
	}
}
