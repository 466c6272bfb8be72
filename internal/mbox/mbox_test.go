package mbox

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/ids"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
)

// staticElement returns a fixed verdict and records calls.
type staticElement struct {
	name    string
	verdict Verdict
	calls   int
	mu      sync.Mutex
}

func (s *staticElement) Name() string { return s.name }
func (s *staticElement) Process(*Context) Verdict {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	return s.verdict
}
func (s *staticElement) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func testCtx(t *testing.T, dir Direction, payload string, dstPort uint16) *Context {
	t.Helper()
	src, dst := packet.MustParseIPv4("10.0.0.1"), packet.MustParseIPv4("10.0.0.2")
	tcp := &packet.TCP{SrcPort: 40000, DstPort: dstPort, Seq: 1, Ack: 1, Flags: packet.TCPPsh | packet.TCPAck}
	tcp.SetNetworkForChecksum(src, dst)
	b := packet.NewSerializeBuffer()
	layers := []packet.SerializableLayer{
		&packet.Ethernet{SrcMAC: packet.MACAddress{2, 0, 0, 0, 0, 1}, DstMAC: packet.MACAddress{2, 0, 0, 0, 0, 2}, EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{SrcIP: src, DstIP: dst, Protocol: packet.IPProtocolTCP},
		tcp,
	}
	if payload != "" {
		layers = append(layers, packet.NewPayload([]byte(payload)))
	}
	if err := packet.SerializeLayers(b, layers...); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, b.Len())
	copy(frame, b.Bytes())
	return &Context{Frame: frame, Packet: packet.Decode(frame, packet.LayerTypeEthernet), Dir: dir}
}

func TestPipelineOrderAndShortCircuit(t *testing.T) {
	a := &staticElement{name: "a", verdict: Forward}
	b := &staticElement{name: "b", verdict: Drop}
	c := &staticElement{name: "c", verdict: Forward}
	p := NewPipeline(a, b, c)
	if v := p.Process(testCtx(t, ToDevice, "x", 80)); v != Drop {
		t.Errorf("verdict = %v", v)
	}
	if a.callCount() != 1 || b.callCount() != 1 || c.callCount() != 0 {
		t.Errorf("calls = %d %d %d; drop must short-circuit", a.callCount(), b.callCount(), c.callCount())
	}
	stats := p.Stats()
	if stats[1].Dropped != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestPipelineLiveReconfiguration(t *testing.T) {
	a := &staticElement{name: "a", verdict: Forward}
	p := NewPipeline(a)
	if got := p.Elements(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("elements = %v", got)
	}
	b := &staticElement{name: "b", verdict: Forward}
	p.Insert(0, b)
	if got := p.Elements(); len(got) != 2 || got[0] != "b" {
		t.Fatalf("after insert: %v", got)
	}
	if !p.Remove("a") {
		t.Fatal("remove failed")
	}
	if p.Remove("nope") {
		t.Fatal("removed nonexistent element")
	}
	p.Replace(a, b)
	if got := p.Elements(); len(got) != 2 || got[0] != "a" {
		t.Fatalf("after replace: %v", got)
	}
	if p.reconfigs.Load() != 3 {
		t.Errorf("reconfigs = %d", p.reconfigs.Load())
	}
}

func TestHeaderFilter(t *testing.T) {
	attacker := packet.MustParseIPv4("10.0.0.1")
	f := NewHeaderFilter(Allow, ACLRule{Action: Deny, SrcIP: IPPtr(attacker), DstPort: PortPtr(80)})
	if v := f.Process(testCtx(t, ToDevice, "x", 80)); v != Drop {
		t.Error("matching deny rule should drop")
	}
	if v := f.Process(testCtx(t, ToDevice, "x", 81)); v != Forward {
		t.Error("non-matching frame should use default allow")
	}
	if v := NewHeaderFilter(Deny).Process(testCtx(t, ToDevice, "x", 9)); v != Drop {
		t.Error("default deny should drop")
	}
}

func TestRateLimiter(t *testing.T) {
	rl := NewRateLimiter(10, 5)
	now := time.Now()
	rl.Clock = func() time.Time { return now }
	passed := 0
	for i := 0; i < 20; i++ {
		if rl.Process(testCtx(t, ToDevice, "x", 80)) == Forward {
			passed++
		}
	}
	if passed != 5 {
		t.Errorf("burst passed %d, want 5", passed)
	}
	// After one second 10 tokens accrue but the bucket caps at its
	// burst capacity of 5.
	now = now.Add(time.Second)
	passed = 0
	for i := 0; i < 20; i++ {
		if rl.Process(testCtx(t, ToDevice, "x", 80)) == Forward {
			passed++
		}
	}
	if passed != 5 {
		t.Errorf("refill passed %d, want capacity-capped 5", passed)
	}
	// A 200ms gap refills exactly 2 tokens.
	now = now.Add(200 * time.Millisecond)
	passed = 0
	for i := 0; i < 5; i++ {
		if rl.Process(testCtx(t, ToDevice, "x", 80)) == Forward {
			passed++
		}
	}
	if passed != 2 {
		t.Errorf("partial refill passed %d, want 2", passed)
	}
}

func TestStatefulFirewall(t *testing.T) {
	fw := NewStatefulFirewall()
	inbound := testCtx(t, ToDevice, "x", 4000)
	if v := fw.Process(inbound); v != Drop {
		t.Error("unsolicited inbound should drop")
	}
	// Device initiates outbound; the reverse flow becomes allowed.
	outbound := testCtx(t, FromDevice, "x", 4000)
	if v := fw.Process(outbound); v != Forward {
		t.Error("outbound should pass")
	}
	// Reply: same canonical flow, reversed endpoints.
	src, dst := packet.MustParseIPv4("10.0.0.2"), packet.MustParseIPv4("10.0.0.1")
	tcp := &packet.TCP{SrcPort: 4000, DstPort: 40000, Flags: packet.TCPPsh | packet.TCPAck}
	tcp.SetNetworkForChecksum(src, dst)
	b := packet.NewSerializeBuffer()
	_ = packet.SerializeLayers(b,
		&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{SrcIP: src, DstIP: dst, Protocol: packet.IPProtocolTCP},
		tcp, packet.NewPayload([]byte("reply")),
	)
	reply := &Context{Frame: b.Bytes(), Packet: packet.Decode(b.Bytes(), packet.LayerTypeEthernet), Dir: ToDevice}
	if v := fw.Process(reply); v != Forward {
		t.Error("reply on established flow should pass")
	}
	// Open port passes unsolicited inbound.
	fw2 := NewStatefulFirewall(80)
	if v := fw2.Process(testCtx(t, ToDevice, "x", 80)); v != Forward {
		t.Error("open port should pass")
	}
}

func TestDNSGuard(t *testing.T) {
	gw := packet.MustParseIPv4("10.0.0.254")
	g := &DNSGuard{AllowedClients: map[packet.IPv4Address]bool{gw: true}, MaxResponseBytes: 200}

	mkUDP := func(srcIP string, srcPort, dstPort uint16, size int, dir Direction) *Context {
		src, dst := packet.MustParseIPv4(srcIP), packet.MustParseIPv4("10.0.0.2")
		udp := &packet.UDP{SrcPort: srcPort, DstPort: dstPort}
		udp.SetNetworkForChecksum(src, dst)
		b := packet.NewSerializeBuffer()
		payload := make([]byte, size)
		_ = packet.SerializeLayers(b,
			&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{SrcIP: src, DstIP: dst, Protocol: packet.IPProtocolUDP},
			udp, packet.NewPayload(payload),
		)
		frame := make([]byte, b.Len())
		copy(frame, b.Bytes())
		return &Context{Frame: frame, Packet: packet.Decode(frame, packet.LayerTypeEthernet), Dir: dir}
	}

	if v := g.Process(mkUDP("10.0.9.9", 5353, 53, 30, ToDevice)); v != Drop {
		t.Error("outsider query should drop")
	}
	if v := g.Process(mkUDP("10.0.0.254", 5353, 53, 30, ToDevice)); v != Forward {
		t.Error("whitelisted query should pass")
	}
	if v := g.Process(mkUDP("10.0.0.2", 53, 5353, 500, FromDevice)); v != Drop {
		t.Error("oversized response should drop")
	}
	if v := g.Process(mkUDP("10.0.0.2", 53, 5353, 100, FromDevice)); v != Forward {
		t.Error("small response should pass")
	}
	q, r := g.Dropped()
	if q != 1 || r != 1 {
		t.Errorf("dropped = %d %d", q, r)
	}
}

func TestIDSElement(t *testing.T) {
	rules, err := ids.ParseRules(`block tcp any any -> any 80 (msg:"default creds"; content:"admin:admin"; sid:1;)`)
	if err != nil {
		t.Fatal(err)
	}
	var alerts []ids.Alert
	e := &IDSElement{Engine: ids.NewEngine(rules), OnAlert: func(a ids.Alert) { alerts = append(alerts, a) }}
	if v := e.Process(testCtx(t, ToDevice, "auth: admin:admin", 80)); v != Drop {
		t.Error("block rule should drop")
	}
	if len(alerts) != 1 {
		t.Errorf("alerts = %v", alerts)
	}
	if v := e.Process(testCtx(t, ToDevice, "benign", 80)); v != Forward {
		t.Error("benign payload should pass")
	}
}

// --- end-to-end: real device behind an inline µmbox ---

// wire builds client ↔ mbox ↔ device and returns the pieces.
func wire(t *testing.T, m *Mbox, dev *device.Device) *device.Client {
	t.Helper()
	n := netsim.NewNetwork()
	clientIP := packet.MustParseIPv4("10.0.0.100")
	clientStack := netsim.NewStack("client", device.MACFor(clientIP), clientIP)
	clientPort := clientStack.Attach(n)
	devPort, err := dev.Attach(n)
	if err != nil {
		t.Fatal(err)
	}
	south, north := m.AttachInline(n)
	n.Connect(devPort, south, netsim.LinkOptions{})
	n.Connect(north, clientPort, netsim.LinkOptions{})
	n.Start()
	t.Cleanup(func() {
		clientStack.Stop()
		dev.Stop()
		n.Stop()
	})
	return &device.Client{Stack: clientStack, Timeout: time.Second}
}

func TestPasswordProxyEndToEnd(t *testing.T) {
	cam := device.NewCamera("cam", packet.MustParseIPv4("10.0.0.10"))
	proxy := NewPasswordProxy("homeadmin", "str0ng!", "admin", "admin")
	m := NewMbox("mb-cam", NewPipeline(proxy))
	client := wire(t, m, cam.Device)

	// The factory default — the attack of Figure 4 — is now refused
	// at the proxy, with an immediate reset.
	_, err := client.Call(cam.IP(), device.Request{Cmd: "SNAPSHOT", User: "admin", Pass: "admin"})
	if err == nil {
		t.Fatal("factory credentials traversed the proxy")
	}
	if !errors.Is(err, netsim.ErrReset) && !errors.Is(err, netsim.ErrTimeout) && !errors.Is(err, netsim.ErrClosed) {
		t.Logf("note: refused with %v", err)
	}

	// The administrator-chosen credentials work even though the
	// device itself has never heard of them.
	resp, err := client.Call(cam.IP(), device.Request{Cmd: "SNAPSHOT", User: "homeadmin", Pass: "str0ng!"})
	if err != nil {
		t.Fatalf("new credentials failed: %v", err)
	}
	if !resp.OK {
		t.Fatalf("device rejected translated request: %+v", resp)
	}

	accepted, rejected := proxy.Counters()
	if accepted != 1 || rejected != 1 {
		t.Errorf("proxy counters = %d accepted %d rejected", accepted, rejected)
	}
}

func TestContextGateEndToEnd(t *testing.T) {
	plug := device.NewSmartPlug("wemo", packet.MustParseIPv4("10.0.0.11"), device.Appliance{
		Name: "oven", PowerVar: "oven_power", Watts: 1800,
	})
	var personHome sync.Map
	personHome.Store("v", false)
	gate := NewContextGate(func(string) bool {
		v, _ := personHome.Load("v")
		return v.(bool)
	}, "ON")
	m := NewMbox("mb-wemo", NewPipeline(gate))
	client := wire(t, m, plug.Device)

	// Nobody home: even the backdoor cannot turn the oven on
	// (Figure 5's remote attacker).
	_, err := client.Call(plug.IP(), device.Request{Cmd: "ON", Args: []string{device.PlugBackdoorToken}})
	if err == nil {
		t.Fatal("ON traversed the gate while away")
	}
	if plug.Get("power") == "on" {
		t.Fatal("plug turned on despite gate")
	}
	if blocked(gate) == 0 {
		t.Error("gate did not count the block")
	}

	// OFF is not guarded: allowed even while away (fail-safe
	// direction).
	if resp, err := client.Call(plug.IP(), device.Request{Cmd: "OFF", Args: []string{device.PlugBackdoorToken}}); err != nil || !resp.OK {
		t.Fatalf("OFF should pass: %v %+v", err, resp)
	}

	// Person comes home: ON now allowed.
	personHome.Store("v", true)
	resp, err := client.Call(plug.IP(), device.Request{Cmd: "ON", Args: []string{device.PlugBackdoorToken}})
	if err != nil || !resp.OK {
		t.Fatalf("ON while home failed: %v %+v", err, resp)
	}
	if plug.Get("power") != "on" {
		t.Error("plug not on")
	}
}

// TestRefusalLeavesNoDeviceStream: the device accepts a stream before
// the µmbox can judge the request on it, so a refusal has to reset the
// device's end too — otherwise every refused attempt leaves it one
// established stream and one dispatch goroutine, forever.
func TestRefusalLeavesNoDeviceStream(t *testing.T) {
	refused := device.Request{Cmd: "SNAPSHOT", User: "admin", Pass: "admin"}
	cases := []struct {
		name string
		elem Element
	}{
		{"password proxy", NewPasswordProxy("homeadmin", "str0ng!", "admin", "admin")},
		{"context gate", NewContextGate(func(string) bool { return false }, "SNAPSHOT")},
		{"challenge", NewChallenge("rose")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cam := device.NewCamera("cam", packet.MustParseIPv4("10.0.0.10"))
			client := wire(t, NewMbox("mb-cam", NewPipeline(tc.elem)), cam.Device)
			attempt := func() {
				if _, err := client.Call(cam.IP(), refused); err == nil {
					t.Fatal("request was not refused")
				}
			}
			attempt() // ARP and first-use set-up happen here, before the baseline
			// The baseline is the count once it has stopped falling.
			baseline := runtime.NumGoroutine()
			for i := 0; i < 200; i++ {
				time.Sleep(5 * time.Millisecond)
				n := runtime.NumGoroutine()
				if n >= baseline {
					break
				}
				baseline = n
			}
			const attempts = 20
			for i := 0; i < attempts; i++ {
				attempt()
			}
			deadline := time.Now().Add(3 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after %d refused requests, baseline %d: the device kept their streams",
						runtime.NumGoroutine(), attempts, baseline)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

func TestManagerLaunchPlacementAndMetrics(t *testing.T) {
	mgr := NewManager(Server{Name: "s1", Slots: 2}, Server{Name: "s2", Slots: 1})
	mgr.TimeScale = 0.001

	for i, name := range []string{"a", "b", "c"} {
		if _, err := mgr.Launch(context.Background(), name, PlatformMicroVM, NewPipeline()); err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
	}
	if _, err := mgr.Launch(context.Background(), "d", PlatformMicroVM, NewPipeline()); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("over-capacity launch: %v", err)
	}
	if _, err := mgr.Launch(context.Background(), "a", PlatformMicroVM, NewPipeline()); !errors.Is(err, ErrDuplicateMbox) {
		t.Errorf("duplicate launch: %v", err)
	}
	total, used := mgr.Capacity()
	if total != 3 || used != 3 {
		t.Errorf("capacity = %d/%d", used, total)
	}
	if err := mgr.Terminate("b"); err != nil {
		t.Fatal(err)
	}
	if _, used = mgr.Capacity(); used != 2 {
		t.Errorf("used after terminate = %d", used)
	}
	// Freed slot is reusable.
	if _, err := mgr.Launch(context.Background(), "e", PlatformProcess, NewPipeline()); err != nil {
		t.Fatal(err)
	}
	boots, mean, _ := mgr.Metrics()
	if boots != 4 {
		t.Errorf("boots = %d", boots)
	}
	if mean <= 0 {
		t.Errorf("mean boot = %v", mean)
	}
	// Reconfigure requires a live instance.
	if err := mgr.Reconfigure(context.Background(), "e", &staticElement{name: "x", verdict: Forward}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Reconfigure(context.Background(), "ghost"); !errors.Is(err, ErrUnknownMbox) {
		t.Errorf("reconfigure ghost: %v", err)
	}
}

func TestBootLatencyOrdering(t *testing.T) {
	if !(BootLatency(PlatformProcess) < BootLatency(PlatformMicroVM) &&
		BootLatency(PlatformMicroVM) < BootLatency(PlatformFullVM)) {
		t.Error("boot latency ordering violated")
	}
}

func TestCommandOf(t *testing.T) {
	if got := commandOf([]byte("IOT/1 SNAPSHOT\nauth: a:b\n")); got != "SNAPSHOT" {
		t.Errorf("commandOf = %q", got)
	}
	if got := commandOf([]byte{0x1, 0x2}); got != "<raw>" {
		t.Errorf("commandOf raw = %q", got)
	}
}

func TestProtectedIPScoping(t *testing.T) {
	// A deny-everything µmbox scoped to one device must pass foreign
	// traffic flooded onto its leg untouched.
	m := NewMbox("mb", NewPipeline(NewHeaderFilter(Deny)))
	m.SetProtectedIP(packet.MustParseIPv4("10.0.0.5"))

	n := netsim.NewNetwork()
	south, north := m.AttachInline(n)
	inSink, outSink := &sinkNode{name: "in"}, &sinkNode{name: "out"}
	n.Connect(n.NewPort(inSink, 1), south, netsim.LinkOptions{})
	outPort := n.NewPort(outSink, 1)
	n.Connect(outPort, north, netsim.LinkOptions{})
	n.Start()
	defer n.Stop()

	mkFrame := func(dstIP string) []byte {
		src, dst := packet.MustParseIPv4("10.0.0.100"), packet.MustParseIPv4(dstIP)
		tcp := &packet.TCP{SrcPort: 1, DstPort: 80, Flags: packet.TCPPsh | packet.TCPAck}
		tcp.SetNetworkForChecksum(src, dst)
		b := packet.NewSerializeBuffer()
		_ = packet.SerializeLayers(b,
			&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{SrcIP: src, DstIP: dst, Protocol: packet.IPProtocolTCP},
			tcp, packet.NewPayload([]byte("x")),
		)
		out := make([]byte, b.Len())
		copy(out, b.Bytes())
		return out
	}

	// Foreign traffic (dst 10.0.0.9) passes despite the deny-all.
	outPort.Peer() // ensure wiring
	northPeer := north.Peer()
	_ = northPeer
	outToDevice := mkFrame("10.0.0.9")
	outPort.Send(outToDevice)
	time.Sleep(20 * time.Millisecond)
	if got := inSink.count(); got != 1 {
		t.Errorf("foreign frame not passed through: %d", got)
	}
	// Protected traffic (dst 10.0.0.5) is policed: dropped.
	outPort.Send(mkFrame("10.0.0.5"))
	time.Sleep(20 * time.Millisecond)
	if got := inSink.count(); got != 1 {
		t.Errorf("protected frame escaped the deny pipeline: %d", got)
	}
}

// sinkNode is a minimal frame counter.
type sinkNode struct {
	name string
	mu   sync.Mutex
	n    int
}

func (s *sinkNode) NodeName() string { return s.name }
func (s *sinkNode) HandleFrame(_ *netsim.Port, _ netsim.Frame) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}
func (s *sinkNode) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}
