package resilience

import (
	"errors"
	"net"
	"testing"
	"time"
)

// pipePair returns the two ends of an in-memory connection, the first
// wrapped with the plan.
func pipePair(t *testing.T, plan *FaultPlan) (*FlakyConn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	fc := WrapConn(a, plan)
	t.Cleanup(func() { _ = fc.Close(); _ = b.Close() })
	return fc, b
}

func TestFlakyConnPassthrough(t *testing.T) {
	fc, peer := pipePair(t, NewFaultPlan(1))
	go func() { _, _ = peer.Write([]byte("ping")) }()
	buf := make([]byte, 4)
	n, err := fc.Read(buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("Read = (%q, %v), want (ping, nil)", buf[:n], err)
	}
}

// TestFlakyConnReadPartitionBlocks verifies a one-way partition makes
// reads hang silently until the conn closes — the half-dead session
// shape heartbeats exist to detect.
func TestFlakyConnReadPartitionBlocks(t *testing.T) {
	plan := NewFaultPlan(1)
	plan.PartitionReads(true)
	fc, peer := pipePair(t, plan)
	go func() { _, _ = peer.Write([]byte("lost")) }()

	done := make(chan error, 1)
	go func() {
		_, err := fc.Read(make([]byte, 4))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("partitioned read returned early: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	_ = fc.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("partitioned read error = %v, want net.ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("partitioned read did not unblock on close")
	}
}

// TestFlakyConnWritePartitionBlackholes verifies a blackholed write
// direction reports success without delivering.
func TestFlakyConnWritePartitionBlackholes(t *testing.T) {
	plan := NewFaultPlan(1)
	plan.PartitionWrites(true)
	fc, peer := pipePair(t, plan)
	n, err := fc.Write([]byte("void"))
	if n != 4 || err != nil {
		t.Fatalf("blackholed Write = (%d, %v), want (4, nil)", n, err)
	}
	_ = peer.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	if _, err := peer.Read(make([]byte, 4)); err == nil {
		t.Fatal("peer received data across a write partition")
	}
}

// TestFlakyConnKillDeterministic verifies kill sampling is driven by
// the seeded source: with rate 1 every I/O fails with
// ErrInjectedFailure and the conn is closed.
func TestFlakyConnKillDeterministic(t *testing.T) {
	plan := NewFaultPlan(7)
	plan.SetKillRate(1)
	fc, _ := pipePair(t, plan)
	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrInjectedFailure) {
		t.Fatalf("Write under kill rate 1 = %v, want ErrInjectedFailure", err)
	}
	// The kill closed the underlying conn.
	if _, err := fc.Conn.Write([]byte("x")); err == nil {
		t.Fatal("underlying conn still writable after injected kill")
	}
}

func TestFlakyConnLatency(t *testing.T) {
	plan := NewFaultPlan(1)
	plan.SetLatency(0, 25*time.Millisecond)
	fc, peer := pipePair(t, plan)
	go func() { _, _ = peer.Read(make([]byte, 4)) }()
	start := time.Now()
	if _, err := fc.Write([]byte("slow")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("write completed in %v, want >= 25ms injected latency", d)
	}
}

// TestFlakyListener verifies accepted conns inherit the plan.
func TestFlakyListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	plan := NewFaultPlan(3)
	plan.PartitionWrites(true)
	fln := WrapListener(ln, plan)
	defer fln.Close()

	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			defer c.Close()
			_ = c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			_, _ = c.Read(make([]byte, 8))
		}
	}()
	c, err := fln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.(*FlakyConn); !ok {
		t.Fatalf("Accept returned %T, want *FlakyConn", c)
	}
	if n, err := c.Write([]byte("gone")); n != 4 || err != nil {
		t.Fatalf("write through partitioned accepted conn = (%d, %v), want blackholed success", n, err)
	}
}

// PartitionReads blackholes the receive direction: reads block (no
// data arrives) until the conn is closed. Models a one-way partition
// where the peer's traffic is lost.
func (p *FaultPlan) PartitionReads(on bool) {
	p.mu.Lock()
	p.dropReads = on
	p.mu.Unlock()
}

// PartitionWrites blackholes the send direction: writes report
// success but never reach the peer.
func (p *FaultPlan) PartitionWrites(on bool) {
	p.mu.Lock()
	p.dropWrites = on
	p.mu.Unlock()
}

// FlakyListener wraps every accepted connection with the plan.
type FlakyListener struct {
	net.Listener
	plan *FaultPlan
}

// WrapListener attaches a fault plan to all future accepted conns.
func WrapListener(ln net.Listener, plan *FaultPlan) *FlakyListener {
	return &FlakyListener{Listener: ln, plan: plan}
}

// Accept implements net.Listener.
func (l *FlakyListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return WrapConn(c, l.plan), nil
}
