package netsim

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"iotsec/internal/openflow"
	"iotsec/internal/packet"
)

// sink is a Node that records received frames.
type sink struct {
	name string
	mu   sync.Mutex
	got  []Frame
	ch   chan Frame
}

func newSink(name string) *sink {
	return &sink{name: name, ch: make(chan Frame, 64)}
}

func (s *sink) NodeName() string { return s.name }
func (s *sink) HandleFrame(_ *Port, f Frame) {
	s.mu.Lock()
	s.got = append(s.got, f)
	s.mu.Unlock()
	select {
	case s.ch <- f:
	default:
	}
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

// waitFrame blocks for one frame or fails the test.
func (s *sink) waitFrame(t *testing.T) Frame {
	t.Helper()
	select {
	case f := <-s.ch:
		return f
	case <-time.After(2 * time.Second):
		t.Fatalf("%s: no frame arrived", s.name)
		return nil
	}
}

func TestFabricDelivery(t *testing.T) {
	n := NewNetwork()
	a, b := newSink("a"), newSink("b")
	pa, pb := n.NewPort(a, 1), n.NewPort(b, 1)
	n.Connect(pa, pb, LinkOptions{})
	n.Start()
	defer n.Stop()

	pa.Send(Frame("hello"))
	if got := b.waitFrame(t); string(got) != "hello" {
		t.Errorf("frame = %q", got)
	}
	// Stats reflect the exchange.
	if st := pa.Stats(); st.TxFrames != 1 {
		t.Errorf("tx frames = %d", st.TxFrames)
	}
	if st := pb.Stats(); st.RxFrames != 1 {
		t.Errorf("rx frames = %d", st.RxFrames)
	}
}

func TestDuplicateNodeNameRejected(t *testing.T) {
	n := NewNetwork()
	if err := n.AddNode(newSink("x")); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode(newSink("x")); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestRecorderTap(t *testing.T) {
	n := NewNetwork()
	rec := NewRecorder()
	n.AddTap(rec.Tap())
	a, b := newSink("a"), newSink("b")
	pa, pb := n.NewPort(a, 1), n.NewPort(b, 1)
	n.Connect(pa, pb, LinkOptions{})
	n.Start()
	defer n.Stop()

	pa.Send(Frame("captured"))
	b.waitFrame(t)
	frames := rec.Frames()
	if len(frames) != 1 {
		t.Fatalf("captured %d frames", len(frames))
	}
	if frames[0].SrcNode != "a" || frames[0].DstNode != "b" {
		t.Errorf("capture context = %+v", frames[0])
	}
	rec.Reset()
	if rec.Count() != 0 {
		t.Error("reset did not clear")
	}
}

// buildFrame makes a minimal eth/ip/udp frame for switch tests.
func buildFrame(t *testing.T, srcMAC, dstMAC packet.MACAddress, srcIP, dstIP packet.IPv4Address, dstPort uint16) Frame {
	t.Helper()
	b := packet.NewSerializeBuffer()
	udp := &packet.UDP{SrcPort: 9000, DstPort: dstPort}
	udp.SetNetworkForChecksum(srcIP, dstIP)
	err := packet.SerializeLayers(b,
		&packet.Ethernet{SrcMAC: srcMAC, DstMAC: dstMAC, EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{SrcIP: srcIP, DstIP: dstIP, Protocol: packet.IPProtocolUDP},
		udp,
		packet.NewPayload([]byte("payload")),
	)
	if err != nil {
		t.Fatal(err)
	}
	out := make(Frame, b.Len())
	copy(out, b.Bytes())
	return out
}

var (
	mac1 = packet.MACAddress{2, 0, 0, 0, 0, 1}
	mac2 = packet.MACAddress{2, 0, 0, 0, 0, 2}
	ip1  = packet.MustParseIPv4("10.0.0.1")
	ip2  = packet.MustParseIPv4("10.0.0.2")
)

func TestSwitchForwardByFlowEntry(t *testing.T) {
	n := NewNetwork()
	sw := NewSwitch("sw", 1)
	h1, h2, h3 := newSink("h1"), newSink("h2"), newSink("h3")
	sp1, sp2, sp3 := sw.AttachPort(n, 1), sw.AttachPort(n, 2), sw.AttachPort(n, 3)
	n.Connect(n.NewPort(h1, 1), sp1, LinkOptions{})
	p2 := n.NewPort(h2, 1)
	n.Connect(p2, sp2, LinkOptions{})
	n.Connect(n.NewPort(h3, 1), sp3, LinkOptions{})
	n.Start()
	defer n.Stop()

	sw.Table().Insert(openflow.FlowEntry{
		Match:    openflow.MatchAll().WithDstIP(ip2, 32),
		Priority: 10,
		Actions:  []openflow.Action{openflow.Output(2)},
	})

	hp1 := h1.gotPort(n)
	_ = hp1
	// Send from h1 into the switch: matches the rule, exits port 2.
	frame := buildFrame(t, mac1, mac2, ip1, ip2, 80)
	sendViaPeer(sp1, frame)
	got := h2.waitFrame(t)
	if len(got) == 0 {
		t.Fatal("h2 got empty frame")
	}
	time.Sleep(20 * time.Millisecond)
	if h3.count() != 0 {
		t.Error("h3 should not receive unicast-forwarded frame")
	}
}

// gotPort is a helper placeholder keeping the test minimal.
func (s *sink) gotPort(_ *Network) *Port { return nil }

// sendViaPeer injects a frame into a switch port from its link peer.
func sendViaPeer(switchPort *Port, f Frame) {
	switchPort.Peer().Send(f)
}

// tableMissCookie marks the entry tableMiss installs.
const tableMissCookie = 0xfeed

// tableMiss installs what OpenFlow 1.3 calls the table-miss entry, a
// priority-0 MatchAll entry: without one, a frame that matches nothing
// is dropped.
func tableMiss(sw *Switch, a openflow.Action) {
	sw.Table().Insert(openflow.FlowEntry{
		Match:   openflow.MatchAll(),
		Actions: []openflow.Action{a},
		Cookie:  tableMissCookie,
	})
}

// TestSwitchAttachPinsHosts: Attach takes the next free port, links
// it, and pins the host's MAC behind it, so a unicast frame reaches its
// owner only, and a broadcast reaches everyone but the sender.
func TestSwitchAttachPinsHosts(t *testing.T) {
	n := NewNetwork()
	sw := NewSwitch("sw", 1)
	mac3 := packet.MACAddress{2, 0, 0, 0, 0, 3}
	h1, h2, h3 := newSink("h1"), newSink("h2"), newSink("h3")
	sp1 := sw.Attach(n, n.NewPort(h1, 1), mac1)
	sw.AttachPort(n, 2) // taken by hand: Attach skips it
	sp3 := sw.Attach(n, n.NewPort(h2, 1), mac2)
	sp4 := sw.Attach(n, n.NewPort(h3, 1), mac3)
	if sp1.ID != 1 || sp3.ID != 3 || sp4.ID != 4 {
		t.Fatalf("Attach took ports %d, %d, %d, want 1, 3, 4", sp1.ID, sp3.ID, sp4.ID)
	}
	// Three pins and the broadcast entry, all in the pin class.
	entries := sw.Table().Entries()
	if len(entries) != 4 {
		t.Fatalf("%d entries, want 4: %v", len(entries), entries)
	}
	for _, e := range entries {
		if uint8(e.Cookie>>48) != PinCookieTag || e.Priority != pinPriority {
			t.Errorf("entry %v: cookie %#x prio %d, want class %#x prio %d", e, e.Cookie, e.Priority, PinCookieTag, pinPriority)
		}
	}
	n.Start()
	defer n.Stop()

	sendViaPeer(sp1, buildFrame(t, mac1, mac2, ip1, ip2, 80))
	h2.waitFrame(t)
	sendViaPeer(sp1, buildFrame(t, mac1, packet.BroadcastMAC, ip1, ip2, 81))
	h2.waitFrame(t)
	h3.waitFrame(t)
	time.Sleep(20 * time.Millisecond)
	if h1.count() != 0 || h2.count() != 2 || h3.count() != 1 {
		t.Errorf("h1/h2/h3 got %d/%d/%d frames, want 0/2/1", h1.count(), h2.count(), h3.count())
	}
}

// TestSwitchAttachConcurrent: hosts plugged in from several goroutines
// at once each get a port of their own and one pin.
func TestSwitchAttachConcurrent(t *testing.T) {
	const hosts = 16
	n := NewNetwork()
	sw := NewSwitch("sw", 1)
	var wg sync.WaitGroup
	for i := 0; i < hosts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sw.Attach(n, n.NewPort(newSink("h"), 1), packet.MACAddress{2, 0, 0, 0, 1, byte(i)})
		}(i)
	}
	wg.Wait()
	if got := len(sw.PortIDs()); got != hosts {
		t.Fatalf("%d ports for %d hosts", got, hosts)
	}
	if got := sw.Table().Len(); got != hosts+1 {
		t.Fatalf("%d entries, want %d pins and the broadcast entry", got, hosts)
	}
}

// TestSwitchFloodAndDropBehavior: a frame floods only because an entry
// says so, and a frame no entry matches is dropped and counted.
func TestSwitchFloodAndDropBehavior(t *testing.T) {
	n := NewNetwork()
	sw := NewSwitch("sw", 1)
	h1, h2, h3 := newSink("h1"), newSink("h2"), newSink("h3")
	sp1, sp2, sp3 := sw.AttachPort(n, 1), sw.AttachPort(n, 2), sw.AttachPort(n, 3)
	n.Connect(n.NewPort(h1, 1), sp1, LinkOptions{})
	n.Connect(n.NewPort(h2, 1), sp2, LinkOptions{})
	n.Connect(n.NewPort(h3, 1), sp3, LinkOptions{})
	n.Start()
	defer n.Stop()

	frame := buildFrame(t, mac1, mac2, ip1, ip2, 80)

	tableMiss(sw, openflow.Flood())
	sendViaPeer(sp1, frame)
	h2.waitFrame(t)
	h3.waitFrame(t)
	time.Sleep(10 * time.Millisecond)
	if h1.count() != 0 {
		t.Error("flood must exclude ingress port")
	}

	sw.Table().DeleteByCookie(tableMissCookie)
	sendViaPeer(sp1, frame)
	time.Sleep(20 * time.Millisecond)
	if h2.count() != 1 || h3.count() != 1 {
		t.Error("a frame no entry matches was forwarded")
	}
	if _, out, miss, _ := sw.Stats(); out != 2 || miss != 1 {
		t.Errorf("switch forwarded %d copies and counted %d misses, want 2 and 1", out, miss)
	}
}

func TestSwitchPuntsToHandler(t *testing.T) {
	n := NewNetwork()
	sw := NewSwitch("sw", 1)
	sp1 := sw.AttachPort(n, 1)
	h1 := newSink("h1")
	n.Connect(n.NewPort(h1, 1), sp1, LinkOptions{})
	n.Start()
	defer n.Stop()

	punted := make(chan uint16, 1)
	sw.SetPacketInHandler(func(inPort uint16, reason uint8, frame Frame) {
		punted <- inPort
	})
	tableMiss(sw, openflow.ToController())
	sendViaPeer(sp1, buildFrame(t, mac1, mac2, ip1, ip2, 80))
	select {
	case port := <-punted:
		if port != 1 {
			t.Errorf("punted in_port = %d", port)
		}
	case <-time.After(time.Second):
		t.Fatal("no punt")
	}
}

func TestSwitchSetEthDstRewrite(t *testing.T) {
	n := NewNetwork()
	sw := NewSwitch("sw", 1)
	sp1, sp2 := sw.AttachPort(n, 1), sw.AttachPort(n, 2)
	h1, h2 := newSink("h1"), newSink("h2")
	n.Connect(n.NewPort(h1, 1), sp1, LinkOptions{})
	n.Connect(n.NewPort(h2, 1), sp2, LinkOptions{})
	n.Start()
	defer n.Stop()

	newMAC := packet.MACAddress{2, 0, 0, 0, 0, 0x99}
	sw.Table().Insert(openflow.FlowEntry{
		Match:    openflow.MatchAll(),
		Priority: 1,
		Actions:  []openflow.Action{openflow.SetEthDst(newMAC), openflow.Output(2)},
	})
	sendViaPeer(sp1, buildFrame(t, mac1, mac2, ip1, ip2, 80))
	got := h2.waitFrame(t)
	p := packet.Decode(got, packet.LayerTypeEthernet)
	if eth := p.Ethernet(); eth == nil || eth.DstMAC != newMAC {
		t.Errorf("dst mac not rewritten: %v", p)
	}
}

// TestSwitchRewriteLeavesSharedFrameAlone: links hand frames over
// without copying, so a set-field action must not write into a buffer
// anyone else holds — not the copy already sent to an earlier port of
// the same action list, not the sender's.
func TestSwitchRewriteLeavesSharedFrameAlone(t *testing.T) {
	n := NewNetwork()
	sw := NewSwitch("sw", 1)
	sp1, sp2, sp3, sp4 := sw.AttachPort(n, 1), sw.AttachPort(n, 2), sw.AttachPort(n, 3), sw.AttachPort(n, 4)
	h1, h2, h3, h4 := newSink("h1"), newSink("h2"), newSink("h3"), newSink("h4")
	n.Connect(n.NewPort(h1, 1), sp1, LinkOptions{})
	n.Connect(n.NewPort(h2, 1), sp2, LinkOptions{})
	n.Connect(n.NewPort(h3, 1), sp3, LinkOptions{})
	n.Connect(n.NewPort(h4, 1), sp4, LinkOptions{})
	n.Start()
	defer n.Stop()

	dstA := packet.MACAddress{2, 0, 0, 0, 0, 0x91}
	srcB := packet.MACAddress{2, 0, 0, 0, 0, 0x92}
	sw.Table().Insert(openflow.FlowEntry{
		Match:    openflow.MatchAll(),
		Priority: 1,
		Actions: []openflow.Action{
			openflow.Output(2), openflow.SetEthDst(dstA), openflow.Output(3),
			openflow.SetEthSrc(srcB), openflow.Output(4),
		},
	})
	sent := buildFrame(t, mac1, mac2, ip1, ip2, 80)
	orig := append([]byte(nil), sent...)
	sendViaPeer(sp1, sent)
	macs := func(f Frame) (dst, src packet.MACAddress) {
		eth := packet.Decode(f, packet.LayerTypeEthernet).Ethernet()
		return eth.DstMAC, eth.SrcMAC
	}
	if dst, src := macs(h2.waitFrame(t)); dst != mac2 || src != mac1 {
		t.Errorf("port 2 (before any rewrite) got dst %v src %v", dst, src)
	}
	if dst, src := macs(h3.waitFrame(t)); dst != dstA || src != mac1 {
		t.Errorf("port 3 (after set-dst) got dst %v src %v", dst, src)
	}
	if dst, src := macs(h4.waitFrame(t)); dst != dstA || src != srcB {
		t.Errorf("port 4 (after set-dst, set-src) got dst %v src %v", dst, src)
	}
	if !bytes.Equal(sent, orig) {
		t.Error("the switch wrote into the frame it received")
	}
}

// --- agent integration with a live controller endpoint ---

type ctrlHandler struct {
	connected chan uint64
	packetIns chan *openflow.PacketIn
	removed   chan *openflow.FlowRemoved
}

func (h *ctrlHandler) SwitchConnected(dpid uint64, ports []uint16) { h.connected <- dpid }
func (h *ctrlHandler) SwitchDisconnected(uint64)                   {}
func (h *ctrlHandler) HandlePacketIn(pi *openflow.PacketIn)        { h.packetIns <- pi }
func (h *ctrlHandler) HandleFlowRemoved(fr *openflow.FlowRemoved)  { h.removed <- fr }

func TestAgentControllerIntegration(t *testing.T) {
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
	sw := NewSwitch("sw", 77)
	tableMiss(sw, openflow.ToController())
	sp1, sp2 := sw.AttachPort(n, 1), sw.AttachPort(n, 2)
	h1, h2 := newSink("h1"), newSink("h2")
	n.Connect(n.NewPort(h1, 1), sp1, LinkOptions{})
	n.Connect(n.NewPort(h2, 1), sp2, LinkOptions{})
	n.Start()
	defer n.Stop()

	agent, err := ConnectAgent(sw, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Stop()

	select {
	case dpid := <-h.connected:
		if dpid != 77 {
			t.Fatalf("dpid = %d", dpid)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("switch never connected")
	}

	// Table-miss entry → PACKET_IN at the controller.
	frame := buildFrame(t, mac1, mac2, ip1, ip2, 80)
	sendViaPeer(sp1, frame)
	select {
	case pi := <-h.packetIns:
		if pi.DatapathID != 77 || pi.InPort != 1 {
			t.Errorf("packet-in = %+v", pi)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no packet-in")
	}

	// FLOW_MOD programs the table; barrier guarantees it applied.
	err = ep.SendFlowMod(77, &openflow.FlowMod{
		Command:  openflow.FlowAdd,
		Match:    openflow.MatchAll().WithDstIP(ip2, 32),
		Priority: 5,
		Actions:  []openflow.Action{openflow.Output(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Barrier(77, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	sendViaPeer(sp1, frame)
	h2.waitFrame(t)

	// PACKET_OUT injects directly.
	err = ep.SendPacketOut(77, &openflow.PacketOut{
		InPort:  1,
		Actions: []openflow.Action{openflow.Output(2)},
		Data:    frame,
	})
	if err != nil {
		t.Fatal(err)
	}
	h2.waitFrame(t)

	// Short-lived flow expires → FLOW_REMOVED.
	err = ep.SendFlowMod(77, &openflow.FlowMod{
		Command:     openflow.FlowAdd,
		Match:       openflow.MatchAll().WithTpDst(9999),
		Priority:    4,
		HardTimeout: 20 * time.Millisecond,
		Cookie:      321,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case fr := <-h.removed:
		if fr.Cookie != 321 {
			t.Errorf("flow-removed cookie = %d", fr.Cookie)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no flow-removed")
	}
}
