package netsim

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotsec/internal/openflow"
	"iotsec/internal/packet"
)

// pingPong is what two pingNodes share: hops delivered so far, and how
// deeply their handlers nest.
type pingPong struct {
	hops, depth, maxDepth atomic.Int64
}

// pingNode bounces every frame back out of its port until the pair has
// made limit deliveries.
type pingNode struct {
	name  string
	port  *Port
	limit int64
	s     *pingPong
}

func (p *pingNode) NodeName() string { return p.name }
func (p *pingNode) HandleFrame(_ *Port, f Frame) {
	d := p.s.depth.Add(1)
	defer p.s.depth.Add(-1)
	if d > p.s.maxDepth.Load() {
		p.s.maxDepth.Store(d)
	}
	if p.s.hops.Add(1) < p.limit {
		p.port.Send(f)
	}
}

// TestSendRunsCascadeToCompletion: on an idle fabric the sender's own
// goroutine delivers the whole cascade, so a 1,000-hop ping-pong has
// finished when the first Send returns; a handler's send is queued, not
// recursed into, so handlers never nest.
func TestSendRunsCascadeToCompletion(t *testing.T) {
	const hops = 1000
	var s pingPong
	n := NewNetwork()
	a := &pingNode{name: "a", limit: hops, s: &s}
	b := &pingNode{name: "b", limit: hops, s: &s}
	a.port, b.port = n.NewPort(a, 1), n.NewPort(b, 1)
	n.Connect(a.port, b.port, LinkOptions{})
	n.Start()
	defer n.Stop()

	a.port.Send(Frame("ping"))
	if got := s.hops.Load(); got != hops {
		t.Fatalf("hops done when the first Send returned = %d, want %d", got, hops)
	}
	if got := s.maxDepth.Load(); got != 1 {
		t.Fatalf("handler nesting depth reached %d, want 1", got)
	}
}

// serialSink checks that its handler never runs twice at once and that
// each sender's frames arrive in the order sent.
type serialSink struct {
	inside  atomic.Int32
	overlap atomic.Int32
	next    [4]uint32 // next expected sequence per sender; only the handler touches it
	reorder atomic.Int32
	got     atomic.Int64
}

func (s *serialSink) NodeName() string { return "serial" }
func (s *serialSink) HandleFrame(_ *Port, f Frame) {
	if !s.inside.CompareAndSwap(0, 1) {
		s.overlap.Add(1)
	}
	sender, seq := f[0], binary.BigEndian.Uint32(f[1:])
	if seq < s.next[sender] {
		s.reorder.Add(1)
	}
	s.next[sender] = seq + 1
	s.got.Add(1)
	s.inside.Store(0)
}

// TestPortSerialFIFOUnderConcurrentSenders: four goroutines send 10k
// frames each into one port at once. Whichever goroutine drains, the
// port sees one frame at a time, each sender's frames in order, and
// every frame is either delivered or counted as a queue drop.
func TestPortSerialFIFOUnderConcurrentSenders(t *testing.T) {
	const senders, perSender = 4, 10_000
	n := NewNetwork()
	sink := &serialSink{}
	src := n.NewPort(newSink("src"), 1)
	dst := n.NewPort(sink, 1)
	n.Connect(src, dst, LinkOptions{})
	n.Start()
	defer n.Stop()

	var start, done sync.WaitGroup
	start.Add(1)
	for g := 0; g < senders; g++ {
		done.Add(1)
		go func(g byte) {
			defer done.Done()
			start.Wait()
			for i := uint32(0); i < perSender; i++ {
				f := make(Frame, 5)
				f[0] = g
				binary.BigEndian.PutUint32(f[1:], i)
				src.Send(f)
			}
		}(byte(g))
	}
	start.Done()
	done.Wait()
	if !n.Quiesce(5 * time.Second) {
		t.Fatal("fabric never went idle")
	}
	if v := sink.overlap.Load(); v != 0 {
		t.Errorf("HandleFrame ran concurrently %d times on one port", v)
	}
	if v := sink.reorder.Load(); v != 0 {
		t.Errorf("%d frames arrived behind a later frame from the same sender", v)
	}
	if got, drops := sink.got.Load(), dst.Stats().DropsQueue; got+int64(drops) != senders*perSender {
		t.Errorf("delivered %d + dropped %d != sent %d", got, drops, senders*perSender)
	}
}

// TestQueueOverflowCounted: a port holds portQueueLen frames; more are
// dropped and counted in the port's stats and the fabric counter, the
// queued ones are delivered at Start, and Quiesce still sees the
// fabric go idle.
func TestQueueOverflowCounted(t *testing.T) {
	const extra = 44
	n := NewNetwork()
	b := newSink("b")
	pa, pb := n.NewPort(newSink("a"), 1), n.NewPort(b, 1)
	n.Connect(pa, pb, LinkOptions{})
	defer n.Stop()

	before := mQueueDrops.Value()
	for i := 0; i < portQueueLen+extra; i++ {
		pa.Send(Frame{byte(i)})
	}
	if got := pb.Stats().DropsQueue; got != extra {
		t.Errorf("port DropsQueue = %d, want %d", got, extra)
	}
	if got := mQueueDrops.Value() - before; got != extra {
		t.Errorf("iotsec_netsim_queue_drops_total rose by %d, want %d", got, extra)
	}
	if got := b.count(); got != 0 {
		t.Fatalf("%d frames delivered before Start", got)
	}
	n.Start()
	if !n.Quiesce(2 * time.Second) {
		t.Fatal("Quiesce timed out after an overflow")
	}
	if got := b.count(); got != portQueueLen {
		t.Errorf("delivered %d frames at Start, want %d", got, portQueueLen)
	}
}

// gateNode blocks in its handler on the first frame until released.
type gateNode struct {
	entered, release chan struct{}
	once             sync.Once
	mu               sync.Mutex
	got              []byte
}

func (g *gateNode) NodeName() string { return "gate" }
func (g *gateNode) HandleFrame(_ *Port, f Frame) {
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	g.mu.Lock()
	g.got = append(g.got, f[0])
	g.mu.Unlock()
}

// TestBlockedHandlerDoesNotBlockSenders: while a handler blocks, the
// goroutine draining the network is held up, but a Send from another
// goroutine queues and returns at once; its frame is delivered after
// the handler is released.
func TestBlockedHandlerDoesNotBlockSenders(t *testing.T) {
	n := NewNetwork()
	g := &gateNode{entered: make(chan struct{}), release: make(chan struct{})}
	pa, pb := n.NewPort(newSink("a"), 1), n.NewPort(g, 1)
	n.Connect(pa, pb, LinkOptions{})
	n.Start()
	defer n.Stop()

	go pa.Send(Frame{1})
	select {
	case <-g.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("the first frame never reached the handler")
	}
	begin := time.Now()
	pa.Send(Frame{2})
	if d := time.Since(begin); d > 50*time.Millisecond {
		t.Errorf("Send behind a blocked handler took %v, want < 50ms", d)
	}
	g.mu.Lock()
	early := len(g.got)
	g.mu.Unlock()
	close(g.release)
	if early != 0 {
		t.Errorf("%d frames handled while the handler was blocked", early)
	}
	if !n.Quiesce(2 * time.Second) {
		t.Fatal("fabric never went idle after the release")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if string(g.got) != "\x01\x02" {
		t.Errorf("delivered %v, want [1 2]", g.got)
	}
}

// quarantineNode is a device guard whose handler, on an attack frame,
// quarantines the device the way an IDS alert does: a drop FLOW_MOD,
// then a BARRIER it waits on. Only the agent's serve loop reads the
// reply, so the wait ends early only if that loop is not the goroutine
// running this handler.
type quarantineNode struct {
	ep   *openflow.ControllerEndpoint
	dpid uint64
	mac  packet.MACAddress
	got  atomic.Int64
	took time.Duration // the quarantine's FLOW_MOD and BARRIER, set before done
	done chan error
}

func (q *quarantineNode) NodeName() string { return "guard" }
func (q *quarantineNode) HandleFrame(_ *Port, f Frame) {
	q.got.Add(1)
	if !bytes.HasSuffix(f, []byte("attack")) {
		return
	}
	begin := time.Now()
	err := q.ep.SendFlowMod(q.dpid, &openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Match:    openflow.MatchAll().WithEthDst(q.mac),
		Priority: 400,
	})
	if err == nil {
		err = q.ep.Barrier(q.dpid, 2*time.Second)
	}
	q.took = time.Since(begin)
	q.done <- err
}

// TestPacketOutNeverDrainsOnServeLoop: a PACKET_OUT whose frame makes
// a handler quarantine its device completes the quarantine's barrier
// well inside its 2 s timeout, and the device then receives nothing.
func TestPacketOutNeverDrainsOnServeLoop(t *testing.T) {
	h := &ctrlHandler{
		connected: make(chan uint64, 1),
		packetIns: make(chan *openflow.PacketIn, 8),
		removed:   make(chan *openflow.FlowRemoved, 8),
	}
	ep := openflow.NewControllerEndpoint(h, nil)
	addr, err := ep.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	n := NewNetwork()
	sw := NewSwitch("sw", 79)
	guard := &quarantineNode{ep: ep, dpid: 79, mac: mac1, done: make(chan error, 1)}
	gp := n.NewPort(guard, 1)
	sw.Attach(n, gp, mac1)
	hp := n.NewPort(newSink("h2"), 1)
	sw.Attach(n, hp, mac2)
	n.Start()
	defer n.Stop()

	agent, err := ConnectAgent(sw, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Stop()
	select {
	case <-h.connected:
	case <-time.After(2 * time.Second):
		t.Fatal("switch never connected")
	}

	attack := append(buildFrame(t, mac2, mac1, ip2, ip1, 80), "attack"...)
	if err := ep.SendPacketOut(79, &openflow.PacketOut{
		InPort:  2,
		Actions: []openflow.Action{openflow.Output(1)},
		Data:    attack,
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-guard.done:
		if err != nil {
			t.Fatalf("quarantine barrier: %v", err)
		}
		if guard.took >= time.Second {
			t.Fatalf("quarantine barrier took %v, want < 1s", guard.took)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the PACKET_OUT frame never reached the device")
	}

	hp.Send(buildFrame(t, mac2, mac1, ip2, ip1, 80))
	if !n.Quiesce(2 * time.Second) {
		t.Fatal("fabric never went idle")
	}
	if got := guard.got.Load(); got != 1 {
		t.Errorf("quarantined device received %d frames, want only the attack", got)
	}
}

// TestPortsOpenGauge: iotsec_netsim_ports_open counts the ports of
// started networks, including ports added while running, until Stop.
func TestPortsOpenGauge(t *testing.T) {
	base := mPortsOpen.Value()
	n := NewNetwork()
	n.Connect(n.NewPort(newSink("a"), 1), n.NewPort(newSink("b"), 1), LinkOptions{})
	if got := mPortsOpen.Value() - base; got != 0 {
		t.Fatalf("ports open before Start = %d, want 0", got)
	}
	n.Start()
	n.NewPort(newSink("c"), 1)
	if got := mPortsOpen.Value() - base; got != 3 {
		t.Fatalf("ports open after Start = %d, want 3", got)
	}
	n.Stop()
	n.Stop()
	if got := mPortsOpen.Value() - base; got != 0 {
		t.Fatalf("ports open after Stop = %d, want 0", got)
	}
}

// TestDroppedFramesNeverObserved: a frame dropped at a full port queue,
// or discarded by Stop, was never delivered, so it reaches neither a
// tap nor iotsec_netsim_frames_delivered_total; the frames the queue
// held are counted and observed once each, when Start delivers them.
func TestDroppedFramesNeverObserved(t *testing.T) {
	const extra = 44
	n := NewNetwork()
	pa, pb := n.NewPort(newSink("a"), 1), n.NewPort(newSink("b"), 1)
	n.Connect(pa, pb, LinkOptions{})
	var tapped atomic.Int64
	n.AddTap(func(src, dst *Port, _ Frame) {
		if src != pa || dst != pb {
			t.Errorf("tap saw %p -> %p, want a -> b", src, dst)
		}
		tapped.Add(1)
	})

	before := mFramesDelivered.Value()
	for i := 0; i < portQueueLen+extra; i++ {
		pa.Send(Frame{byte(i)})
	}
	if got := pb.Stats().DropsQueue; got != extra {
		t.Fatalf("port DropsQueue = %d, want %d", got, extra)
	}
	if got, delivered := tapped.Load(), mFramesDelivered.Value()-before; got != 0 || delivered != 0 {
		t.Fatalf("before Start: tap saw %d, delivered counter rose %d; want 0, 0", got, delivered)
	}
	n.Start()
	if !n.Quiesce(2 * time.Second) {
		t.Fatal("Quiesce timed out")
	}
	if got, delivered := tapped.Load(), mFramesDelivered.Value()-before; got != portQueueLen || delivered != portQueueLen {
		t.Fatalf("after Start: tap saw %d, delivered counter rose %d; want %d each", got, delivered, portQueueLen)
	}

	n.Stop()
	pa.Send(Frame{1})
	if got, delivered := tapped.Load(), mFramesDelivered.Value()-before; got != portQueueLen || delivered != portQueueLen {
		t.Errorf("after Stop: tap saw %d, delivered counter rose %d; want still %d", got, delivered, portQueueLen)
	}
}
