package netsim

import (
	"testing"
	"time"
)

// TestQuiesceDrainsLatentFrames verifies Quiesce is a true barrier:
// after it returns true, every frame sent before it — including ones
// still queued on a port inbox — has been delivered.
func TestQuiesceDrainsLatentFrames(t *testing.T) {
	n := NewNetwork()
	a, b := newSink("a"), newSink("b")
	pa, pb := n.NewPort(a, 1), n.NewPort(b, 1)
	n.Connect(pa, pb, LinkOptions{})
	n.Start()
	defer n.Stop()

	const total = 25
	for i := 0; i < total; i++ {
		pa.Send(Frame{byte(i)})
	}
	if !n.Quiesce(2 * time.Second) {
		t.Fatal("Quiesce timed out with frames in flight")
	}
	// No waiting after the barrier: delivery must already be complete.
	if got := b.count(); got != total {
		t.Fatalf("after Quiesce: b received %d frames, want %d", got, total)
	}
}

// TestQuiesceSeesCausalCascade verifies the barrier covers frames
// emitted by handlers while processing earlier frames: a relay chain
// a → relay → b must fully drain before Quiesce returns.
func TestQuiesceSeesCausalCascade(t *testing.T) {
	n := NewNetwork()
	a, b := newSink("a"), newSink("b")
	relay := &relayNode{}
	pa := n.NewPort(a, 1)
	rIn, rOut := n.NewPort(relay, 1), n.NewPort(relay, 2)
	relay.out = rOut
	pb := n.NewPort(b, 1)
	n.Connect(pa, rIn, LinkOptions{})
	n.Connect(rOut, pb, LinkOptions{})
	n.Start()
	defer n.Stop()

	const total = 10
	for i := 0; i < total; i++ {
		pa.Send(Frame{byte(i)})
	}
	if !n.Quiesce(2 * time.Second) {
		t.Fatal("Quiesce timed out")
	}
	if got := b.count(); got != total {
		t.Fatalf("after Quiesce: b received %d frames, want %d (cascade not drained)", got, total)
	}
}

// TestQuiesceIdleFastPath verifies an idle fabric quiesces immediately.
func TestQuiesceIdleFastPath(t *testing.T) {
	n := NewNetwork()
	a, b := newSink("a"), newSink("b")
	n.Connect(n.NewPort(a, 1), n.NewPort(b, 1), LinkOptions{})
	n.Start()
	defer n.Stop()
	start := time.Now()
	if !n.Quiesce(time.Second) {
		t.Fatal("idle fabric did not quiesce")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("idle quiesce took %v, want fast path", d)
	}
}

// relayNode forwards every frame out its second port.
type relayNode struct{ out *Port }

func (r *relayNode) NodeName() string { return "relay" }
func (r *relayNode) HandleFrame(_ *Port, f Frame) {
	cp := make(Frame, len(f))
	copy(cp, f)
	r.out.Send(cp)
}
