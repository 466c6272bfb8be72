// Package resilience holds the failure-handling primitives the
// control plane is built on: the supervised reconnecting Session both
// wires (switch agent → controller, gateway → signature repository)
// ride, exponential backoff with full jitter for its redial schedule,
// a bounded event ring for degradation buffers, a
// pluggable clock so liveness timers can be frozen in tests, and a
// fault-injection net.Conn wrapper (probabilistic connection kills,
// latency, one-way partitions) for chaos testing the detect → policy →
// controller → µmbox chain under controller restarts, link flaps and
// partitions — the fail-safe behaviour §5.1 of the paper demands of a
// security control plane.
//
// Beyond the standard library the package imports only journal and
// telemetry (which import nothing above them), so every layer (netsim
// agents, the openflow endpoint, cmd binaries, tests) can use it
// without import cycles.
package resilience

import (
	"math/rand"
	"sync"
	"time"
)

// BackoffOptions parameterize a reconnect schedule.
type BackoffOptions struct {
	// Base is the first retry ceiling (default 50ms).
	Base time.Duration
	// Cap bounds any single delay (default 5s).
	Cap time.Duration
	// NoJitter disables full jitter, making Next return the raw
	// exponential ceiling (deterministic schedules for tests).
	NoJitter bool
	// Seed makes the jitter sequence deterministic (0 = seeded from
	// the clock).
	Seed int64
}

// Backoff produces delays for a supervised retry loop: full-jitter
// exponential growth (delay drawn uniformly from [0, ceiling], the
// AWS "full jitter" scheme that decorrelates reconnect stampedes), the
// ceiling doubling per attempt up to a cap, and reset-on-success.
// There is no total budget: a supervisor retries until stopped.
// Not safe for concurrent use; each supervisor owns one.
type Backoff struct {
	opts    BackoffOptions
	rng     *rand.Rand
	attempt int
}

// NewBackoff builds a schedule, applying defaults for zero fields.
func NewBackoff(opts BackoffOptions) *Backoff {
	if opts.Base <= 0 {
		opts.Base = 50 * time.Millisecond
	}
	if opts.Cap <= 0 {
		opts.Cap = 5 * time.Second
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Backoff{opts: opts, rng: rand.New(rand.NewSource(seed))}
}

// Ceiling reports the upper bound the next delay will be drawn from.
func (b *Backoff) Ceiling() time.Duration {
	c := float64(b.opts.Base)
	for i := 0; i < b.attempt; i++ {
		c *= 2
		if c >= float64(b.opts.Cap) {
			return b.opts.Cap
		}
	}
	if c > float64(b.opts.Cap) {
		return b.opts.Cap
	}
	return time.Duration(c)
}

// Next returns the delay to wait before the next attempt.
func (b *Backoff) Next() time.Duration {
	delay := b.Ceiling()
	if !b.opts.NoJitter {
		delay = time.Duration(b.rng.Int63n(int64(delay) + 1))
	}
	b.attempt++
	return delay
}

// Reset returns the schedule to its base state; call it after a
// successful attempt so the next failure restarts from Base.
func (b *Backoff) Reset() { b.attempt = 0 }

// Ring is a bounded FIFO buffer that evicts the oldest element when
// full (drop-oldest), counting evictions. It backs the switch agent's
// degradation buffer: while the southbound session is down, punted
// PACKET_INs and FLOW_REMOVED notifications queue here and are
// replayed on reconnect. Safe for concurrent use.
type Ring[T any] struct {
	mu      sync.Mutex
	buf     []T
	start   int
	n       int
	evicted uint64
}

// NewRing builds a ring holding up to capacity elements (values < 1
// default to 1024).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1024
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push appends v, evicting the oldest element if the ring is full;
// the return value reports whether an eviction happened.
func (r *Ring[T]) Push(v T) (evictedOldest bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == len(r.buf) {
		r.buf[r.start] = v
		r.start = (r.start + 1) % len(r.buf)
		r.evicted++
		return true
	}
	r.buf[(r.start+r.n)%len(r.buf)] = v
	r.n++
	return false
}

// Peek returns the oldest element without removing it.
func (r *Ring[T]) Peek() (v T, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return v, false
	}
	return r.buf[r.start], true
}

// Pop removes and returns the oldest element.
func (r *Ring[T]) Pop() (v T, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return v, false
	}
	var zero T
	v, r.buf[r.start] = r.buf[r.start], zero
	r.start = (r.start + 1) % len(r.buf)
	r.n--
	return v, true
}

// Drain removes and returns all buffered elements, oldest first.
func (r *Ring[T]) Drain() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, r.n)
	for i := 0; i < r.n; i++ {
		idx := (r.start + i) % len(r.buf)
		out = append(out, r.buf[idx])
		var zero T
		r.buf[idx] = zero
	}
	r.start, r.n = 0, 0
	return out
}

// Snapshot returns a copy of the buffered elements, oldest first,
// without consuming them. Durable outboxes use it to persist their
// pending entries without disturbing delivery order.
func (r *Ring[T]) Snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}

// Len reports the buffered element count.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Evicted reports how many elements were dropped to make room.
func (r *Ring[T]) Evicted() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicted
}
