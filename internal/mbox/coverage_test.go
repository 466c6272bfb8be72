package mbox

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/ids"
	"iotsec/internal/packet"
)

func TestChallengeElementDirect(t *testing.T) {
	c := NewChallenge("rose")
	if c.Name() != "robot-check" {
		t.Errorf("name = %q", c.Name())
	}
	mkMgmt := func(args ...string) *Context {
		req := device.Request{Cmd: "OPEN", User: "admin", Pass: "0000", Args: args}
		src, dst := packet.MustParseIPv4("10.0.0.1"), packet.MustParseIPv4("10.0.0.2")
		tcp := &packet.TCP{SrcPort: 40000, DstPort: device.MgmtPort, Flags: packet.TCPPsh | packet.TCPAck}
		tcp.SetNetworkForChecksum(src, dst)
		b := packet.NewSerializeBuffer()
		_ = packet.SerializeLayers(b,
			&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{SrcIP: src, DstIP: dst, Protocol: packet.IPProtocolTCP},
			tcp, packet.NewPayload(req.Encode()),
		)
		frame := make([]byte, b.Len())
		copy(frame, b.Bytes())
		var injected [][]byte
		return &Context{
			Frame:  frame,
			Packet: packet.Decode(frame, packet.LayerTypeEthernet),
			Dir:    ToDevice,
			Inject: func(f []byte) { injected = append(injected, f) },
		}
	}

	// No captcha: dropped.
	if v := c.Process(mkMgmt()); v != Drop {
		t.Error("uncaptcha'd request passed")
	}
	// Wrong solution: dropped.
	if v := c.Process(mkMgmt("captcha:daisy")); v != Drop {
		t.Error("wrong solution passed")
	}
	// Correct solution: forwarded with the captcha stripped.
	ctx := mkMgmt("captcha:rose")
	if v := c.Process(ctx); v != Forward {
		t.Fatal("correct solution dropped")
	}
	p := packet.Decode(ctx.Frame, packet.LayerTypeEthernet)
	req, err := device.ParseRequest(p.TCP().LayerPayload())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range req.Args {
		if strings.HasPrefix(a, "captcha:") {
			t.Errorf("captcha not stripped: %v", req.Args)
		}
	}
	passed, rejected := c.Counters()
	if passed != 1 || rejected != 2 {
		t.Errorf("counters = %d/%d", passed, rejected)
	}
	// FromDevice and non-mgmt traffic pass untouched.
	rev := mkMgmt()
	rev.Dir = FromDevice
	if v := c.Process(rev); v != Forward {
		t.Error("from-device frame not forwarded")
	}
}

func TestLoggerTotalsAndReport(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	l := &Logger{Report: func(s string) {
		mu.Lock()
		lines = append(lines, s)
		mu.Unlock()
	}}
	if l.Name() != "logger" {
		t.Errorf("name = %q", l.Name())
	}
	ctx := testCtx(t, ToDevice, "x", 80)
	frames, bytes := mLoggerFrames.Value(), mLoggerBytes.Value()
	if v := l.Process(ctx); v != Forward {
		t.Error("logger must forward")
	}
	if df, db := mLoggerFrames.Value()-frames, mLoggerBytes.Value()-bytes; df != 1 || db != uint64(len(ctx.Frame)) {
		t.Errorf("logger counted %d frames / %d bytes for one %d-byte frame", df, db, len(ctx.Frame))
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 || !strings.Contains(lines[0], "TCP") {
		t.Errorf("report lines = %v", lines)
	}
}

func TestACLDirAndProtoPredicates(t *testing.T) {
	f := NewHeaderFilter(Allow,
		ACLRule{Action: Deny, Dir: DirPtr(ToDevice), Proto: ProtoPtr(packet.IPProtocolTCP)},
	)
	if v := f.Process(testCtx(t, ToDevice, "x", 80)); v != Drop {
		t.Error("to-device TCP should drop")
	}
	if v := f.Process(testCtx(t, FromDevice, "x", 80)); v != Forward {
		t.Error("from-device TCP should pass (direction predicate)")
	}
}

func TestContextGateSetPredicate(t *testing.T) {
	// The predicate is read per frame, so the context it consults can
	// change under a live gate.
	var open atomic.Bool
	g := NewContextGate(func(string) bool { return open.Load() }, "ON")
	ctx := func() *Context {
		req := device.Request{Cmd: "ON"}
		src, dst := packet.MustParseIPv4("10.0.0.1"), packet.MustParseIPv4("10.0.0.2")
		tcp := &packet.TCP{SrcPort: 40000, DstPort: device.MgmtPort, Flags: packet.TCPPsh | packet.TCPAck}
		tcp.SetNetworkForChecksum(src, dst)
		b := packet.NewSerializeBuffer()
		_ = packet.SerializeLayers(b,
			&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{SrcIP: src, DstIP: dst, Protocol: packet.IPProtocolTCP},
			tcp, packet.NewPayload(req.Encode()),
		)
		frame := make([]byte, b.Len())
		copy(frame, b.Bytes())
		return &Context{Frame: frame, Packet: packet.Decode(frame, packet.LayerTypeEthernet), Dir: ToDevice}
	}
	if v := g.Process(ctx()); v != Drop {
		t.Error("closed gate passed")
	}
	open.Store(true)
	if v := g.Process(ctx()); v != Forward {
		t.Error("opened gate dropped")
	}
	if n := blocked(g); n != 1 {
		t.Errorf("blocked = %d", n)
	}
}

// blocked reports the gate's enforcement count.
func blocked(g *ContextGate) uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.blocked
}

func TestManagerInstanceLookupAndDefaults(t *testing.T) {
	mgr := NewManager() // default single server
	mgr.TimeScale = 0
	if _, ok := mgr.Instance("ghost"); ok {
		t.Error("ghost instance found")
	}
	inst, err := mgr.Launch(context.Background(), "x", PlatformKind("weird"), NewPipeline())
	if err != nil {
		t.Fatal(err)
	}
	if inst.BootTook != 100*time.Millisecond {
		t.Errorf("unknown platform boot = %v", inst.BootTook)
	}
	got, ok := mgr.Instance("x")
	if !ok || got != inst {
		t.Error("instance lookup broken")
	}
	if err := mgr.Terminate("ghost"); !errors.Is(err, ErrUnknownMbox) {
		t.Errorf("terminate ghost: %v", err)
	}
}

func TestAnomalyElementInline(t *testing.T) {
	profile := ids.NewProfile("dev")
	var anomalies []ids.Anomaly
	var mu sync.Mutex
	e := &AnomalyElement{
		Profile: profile,
		OnAnomaly: func(a ids.Anomaly) {
			mu.Lock()
			anomalies = append(anomalies, a)
			mu.Unlock()
		},
	}
	if e.Name() != "anomaly" {
		t.Errorf("name = %q", e.Name())
	}
	mk := func(srcIP, payload string) *Context {
		src, dst := packet.MustParseIPv4(srcIP), packet.MustParseIPv4("10.0.0.2")
		tcp := &packet.TCP{SrcPort: 40000, DstPort: 80, Flags: packet.TCPPsh | packet.TCPAck}
		tcp.SetNetworkForChecksum(src, dst)
		b := packet.NewSerializeBuffer()
		_ = packet.SerializeLayers(b,
			&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{SrcIP: src, DstIP: dst, Protocol: packet.IPProtocolTCP},
			tcp, packet.NewPayload([]byte(payload)),
		)
		frame := make([]byte, b.Len())
		copy(frame, b.Bytes())
		return &Context{Frame: frame, Packet: packet.Decode(frame, packet.LayerTypeEthernet), Dir: ToDevice}
	}
	// Train on the hub's traffic.
	for i := 0; i < 5; i++ {
		e.Process(mk("10.0.0.3", "IOT/1 STATUS\n"))
	}
	profile.EndTraining()
	// A new peer trips the detector.
	e.Process(mk("10.0.9.9", "IOT/1 STATUS\n"))
	mu.Lock()
	defer mu.Unlock()
	var sawNewPeer bool
	for _, a := range anomalies {
		if a.Kind == ids.AnomalyNewPeer {
			sawNewPeer = true
		}
	}
	if !sawNewPeer {
		t.Errorf("anomalies = %v", anomalies)
	}
}

// Ptr helpers for terse ACL construction.
func IPPtr(ip packet.IPv4Address) *packet.IPv4Address { return &ip }
func ProtoPtr(p packet.IPProtocol) *packet.IPProtocol { return &p }
func PortPtr(p uint16) *uint16                        { return &p }
func DirPtr(d Direction) *Direction                   { return &d }
