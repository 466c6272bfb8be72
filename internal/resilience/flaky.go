package resilience

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjectedFailure is returned by FlakyConn I/O that the fault plan
// decided to kill.
var ErrInjectedFailure = errors.New("resilience: injected connection failure")

// FaultPlan is the shared, runtime-tunable control block for a set of
// flaky connections: a chaos test mutates the plan (kill probability,
// latency, one-way partitions) while the system under test keeps
// using conns wrapped over it. The random source is seeded, so a
// given plan + call sequence replays deterministically.
type FaultPlan struct {
	mu  sync.Mutex
	rng *rand.Rand

	killRate     float64
	readLatency  time.Duration
	writeLatency time.Duration
	dropReads    bool
	dropWrites   bool
}

// NewFaultPlan builds a benign plan (no faults) with a deterministic
// random source (seed 0 picks a fixed default).
func NewFaultPlan(seed int64) *FaultPlan {
	if seed == 0 {
		seed = 0xf1a7
	}
	return &FaultPlan{rng: rand.New(rand.NewSource(seed))}
}

// SetKillRate sets the per-I/O probability (in [0,1]) that the
// connection is torn down mid-operation.
func (p *FaultPlan) SetKillRate(rate float64) {
	p.mu.Lock()
	p.killRate = rate
	p.mu.Unlock()
}

// SetLatency injects a fixed delay before each read and write.
func (p *FaultPlan) SetLatency(read, write time.Duration) {
	p.mu.Lock()
	p.readLatency = read
	p.writeLatency = write
	p.mu.Unlock()
}

// sampleKill draws the kill process once.
func (p *FaultPlan) sampleKill() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.killRate > 0 && p.rng.Float64() < p.killRate
}

func (p *FaultPlan) readState() (latency time.Duration, drop bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.readLatency, p.dropReads
}

func (p *FaultPlan) writeState() (latency time.Duration, drop bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.writeLatency, p.dropWrites
}

// FlakyConn wraps a net.Conn with the faults its plan prescribes.
type FlakyConn struct {
	net.Conn
	plan *FaultPlan

	closeOnce sync.Once
	closed    chan struct{}
}

// WrapConn attaches a fault plan to a connection.
func WrapConn(c net.Conn, plan *FaultPlan) *FlakyConn {
	return &FlakyConn{Conn: c, plan: plan, closed: make(chan struct{})}
}

// delay waits d or until the conn closes.
func (c *FlakyConn) delay(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.closed:
		return net.ErrClosed
	}
}

// Read implements net.Conn with injected latency, partitions and
// kills.
func (c *FlakyConn) Read(b []byte) (int, error) {
	latency, drop := c.plan.readState()
	if drop {
		// One-way partition: nothing ever arrives. Block until close so
		// the reader experiences a silent half-dead session (the case
		// heartbeats exist to detect).
		<-c.closed
		return 0, net.ErrClosed
	}
	if err := c.delay(latency); err != nil {
		return 0, err
	}
	if c.plan.sampleKill() {
		_ = c.Close()
		return 0, ErrInjectedFailure
	}
	return c.Conn.Read(b)
}

// Write implements net.Conn with injected latency, partitions and
// kills.
func (c *FlakyConn) Write(b []byte) (int, error) {
	latency, drop := c.plan.writeState()
	if err := c.delay(latency); err != nil {
		return 0, err
	}
	if drop {
		// Blackholed direction: pretend success.
		return len(b), nil
	}
	if c.plan.sampleKill() {
		_ = c.Close()
		return 0, ErrInjectedFailure
	}
	return c.Conn.Write(b)
}

// Close implements net.Conn, waking any partition-blocked readers.
func (c *FlakyConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}
