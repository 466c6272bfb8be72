package netsim

import (
	"testing"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/openflow"
	"iotsec/internal/resilience"
)

// resHandler records connect/disconnect/flow-removed events.
type resHandler struct {
	connected    chan uint64
	disconnected chan uint64
	removed      chan *openflow.FlowRemoved
	packetIns    chan *openflow.PacketIn
}

func newResHandler() *resHandler {
	return &resHandler{
		connected:    make(chan uint64, 8),
		disconnected: make(chan uint64, 8),
		removed:      make(chan *openflow.FlowRemoved, 64),
		packetIns:    make(chan *openflow.PacketIn, 64),
	}
}

func (h *resHandler) SwitchConnected(dpid uint64, _ []uint16) { h.connected <- dpid }
func (h *resHandler) SwitchDisconnected(dpid uint64)          { h.disconnected <- dpid }
func (h *resHandler) HandlePacketIn(pi *openflow.PacketIn)    { h.packetIns <- pi }
func (h *resHandler) HandleFlowRemoved(fr *openflow.FlowRemoved) {
	h.removed <- fr
}

// fastBackoff keeps chaos iterations snappy and deterministic.
func fastBackoff() resilience.BackoffOptions {
	return resilience.BackoffOptions{Base: 5 * time.Millisecond, Cap: 25 * time.Millisecond, Seed: 11}
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAgentReconnectReplay kills the controller endpoint mid-session,
// lets FLOW_REMOVED notifications accumulate in the degradation
// buffer, restarts the endpoint on the same address, and asserts the
// agent reconnects (with backoff) and replays every buffered event
// exactly once.
func TestAgentReconnectReplay(t *testing.T) {
	start := time.Now()
	h := newResHandler()
	ep := openflow.NewControllerEndpoint(h, nil)
	addr, err := ep.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	n := NewNetwork()
	sw := NewSwitch("sw", 91)
	sw.AttachPort(n, 1)
	n.Start()
	defer n.Stop()

	agent := SuperviseAgent(sw, addr, AgentOptions{Backoff: fastBackoff()})
	defer func() { agent.Stop(); agent.Wait() }()

	select {
	case <-h.connected:
	case <-time.After(2 * time.Second):
		t.Fatal("switch never connected")
	}

	// Controller "crashes": listener and sessions drop, state survives.
	ep.Interrupt()
	waitCond(t, "agent to notice the outage", func() bool { return !agent.Connected() })

	// Expire three flows during the outage; the FLOW_REMOVED events
	// must enter the degradation buffer instead of vanishing.
	for i, cookie := range []uint64{1001, 1002, 1003} {
		sw.Table().Insert(openflow.FlowEntry{
			Match:       openflow.MatchAll().WithTpDst(uint16(9000 + i)),
			Priority:    7,
			HardTimeout: time.Millisecond,
			Cookie:      cookie,
		})
	}
	waitCond(t, "expired flows to buffer", func() bool { return agent.BufferedEvents() >= 3 })

	// Controller restarts on the same address.
	if _, err := ep.Listen(addr); err != nil {
		t.Fatalf("re-listen: %v", err)
	}
	select {
	case dpid := <-h.connected:
		if dpid != 91 {
			t.Fatalf("reconnect dpid = %d, want 91", dpid)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent never reconnected")
	}

	// Every buffered FLOW_REMOVED arrives exactly once.
	seen := map[uint64]int{}
	for len(seen) < 3 {
		select {
		case fr := <-h.removed:
			seen[fr.Cookie]++
		case <-time.After(5 * time.Second):
			t.Fatalf("replayed flow-removed missing; got %v", seen)
		}
	}
	// A short grace window catches duplicates.
	grace := time.After(100 * time.Millisecond)
drain:
	for {
		select {
		case fr := <-h.removed:
			seen[fr.Cookie]++
		case <-grace:
			break drain
		}
	}
	for _, cookie := range []uint64{1001, 1002, 1003} {
		if seen[cookie] != 1 {
			t.Errorf("cookie %d delivered %d times, want exactly once", cookie, seen[cookie])
		}
	}
	if got := agent.Reconnects(); got != 1 {
		t.Errorf("Reconnects = %d, want 1", got)
	}
	waitCond(t, "replay counter", func() bool { return agent.Replayed() >= 3 })
	if got := agent.BufferedEvents(); got != 0 {
		t.Errorf("BufferedEvents after replay = %d, want 0", got)
	}

	// The forensic journal can reconstruct the whole episode:
	// disconnect → reconnect → replay appear as typed events.
	for _, typ := range []journal.Type{journal.TypeSouthDown, journal.TypeSouthUp, journal.TypeSouthReplay} {
		if evs := journal.Default.Snapshot(journal.Filter{Type: typ, Since: start}); len(evs) == 0 {
			t.Errorf("journal has no %q events; outage not reconstructable", typ)
		}
	}
}

// TestAgentFailModes drives the degradation path directly. The agent
// has one fail mode left, fail-static: a supervised agent whose
// controller never answers buffers punts, and FLOW_REMOVED events join
// them in the ring.
func TestAgentFailModes(t *testing.T) {
	t.Run("fail-static buffers punts", func(t *testing.T) {
		n := NewNetwork()
		sw := NewSwitch("sw-buffer", 5)
		tableMiss(sw, openflow.ToController())
		sp := sw.AttachPort(n, 1)
		src := newSink("src")
		n.Connect(n.NewPort(src, 1), sp, LinkOptions{})
		n.Start()
		defer n.Stop()

		// Nothing listens on this address: the agent stays in the
		// disconnected/degraded regime for the whole test.
		agent := SuperviseAgent(sw, "127.0.0.1:1", AgentOptions{Backoff: fastBackoff()})
		defer func() { agent.Stop(); agent.Wait() }()

		frame := buildFrame(t, mac1, mac2, ip1, ip2, 80)
		sendViaPeer(sp, frame) // table-miss entry → punt → degradation path
		waitCond(t, "punt to buffer", func() bool { return agent.BufferedEvents() >= 1 })

		// FLOW_REMOVED is state the controller must learn: buffered too.
		before := agent.BufferedEvents()
		sw.Table().Insert(openflow.FlowEntry{
			Match:       openflow.MatchAll().WithTpDst(4242),
			Priority:    3,
			HardTimeout: time.Millisecond,
			Cookie:      77,
		})
		waitCond(t, "flow-removed to buffer", func() bool { return agent.BufferedEvents() > before })
	})
}

// TestAgentBufferEviction verifies the degradation ring is bounded:
// overflowing it evicts oldest-first and counts the loss.
func TestAgentBufferEviction(t *testing.T) {
	n := NewNetwork()
	sw := NewSwitch("sw-evict", 6)
	tableMiss(sw, openflow.ToController())
	sp := sw.AttachPort(n, 1)
	src := newSink("src")
	n.Connect(n.NewPort(src, 1), sp, LinkOptions{})
	n.Start()
	defer n.Stop()

	agent := SuperviseAgent(sw, "127.0.0.1:1", AgentOptions{Backoff: fastBackoff()})
	defer func() { agent.Stop(); agent.Wait() }()

	// Batches below the port's inbox depth, so every punt reaches the
	// ring rather than overflowing the inbox.
	frame := buildFrame(t, mac1, mac2, ip1, ip2, 80)
	for sent := 0; sent < agentBufferCap+100; {
		for i := 0; i < 100; i++ {
			sendViaPeer(sp, frame)
			sent++
		}
		want := min(sent, agentBufferCap)
		waitCond(t, "punts to buffer", func() bool { return agent.BufferedEvents() >= want })
	}
	if got := agent.BufferedEvents(); got != agentBufferCap {
		t.Errorf("ring holds %d events, want its bound %d", got, agentBufferCap)
	}
}
