package openflow

import (
	"net"
	"sync"
	"testing"
	"time"

	"iotsec/internal/resilience"
)

// recordingHandler collects endpoint callbacks.
type recordingHandler struct {
	mu           sync.Mutex
	connected    chan uint64
	disconnected chan uint64
}

func newRecordingHandler() *recordingHandler {
	return &recordingHandler{
		connected:    make(chan uint64, 8),
		disconnected: make(chan uint64, 8),
	}
}

func (h *recordingHandler) SwitchConnected(dpid uint64, ports []uint16) { h.connected <- dpid }
func (h *recordingHandler) SwitchDisconnected(dpid uint64)              { h.disconnected <- dpid }
func (h *recordingHandler) HandlePacketIn(pi *PacketIn)                 {}
func (h *recordingHandler) HandleFlowRemoved(fr *FlowRemoved)           {}

// fakeSwitch dials the endpoint and completes the handshake by hand.
// answerEchoes selects whether it behaves (pongs) or plays dead after
// the handshake (the half-dead session heartbeats must reap).
func fakeSwitch(t *testing.T, addr string, dpid uint64, answerEchoes bool) *Conn {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	conn := NewConn(raw)
	t.Cleanup(func() { _ = conn.Close() })
	// Controller drives: Hello, FeaturesRequest.
	m, xid, err := conn.Receive()
	if err != nil || m.Type() != TypeHello {
		t.Fatalf("want HELLO, got %v (%v)", m, err)
	}
	if err := conn.SendWithXID(&Hello{}, xid); err != nil {
		t.Fatalf("send hello: %v", err)
	}
	m, xid, err = conn.Receive()
	if err != nil || m.Type() != TypeFeaturesRequest {
		t.Fatalf("want FEATURES_REQUEST, got %v (%v)", m, err)
	}
	if err := conn.SendWithXID(&FeaturesReply{DatapathID: dpid, Ports: []uint16{1, 2}}, xid); err != nil {
		t.Fatalf("send features: %v", err)
	}
	// Post-handshake behaviour.
	go func() {
		for {
			m, xid, err := conn.Receive()
			if err != nil {
				return
			}
			if e, ok := m.(*Echo); ok && !e.Reply && answerEchoes {
				_ = conn.SendWithXID(&Echo{Reply: true, Payload: e.Payload}, xid)
			}
		}
	}()
	return conn
}

// advanceUntil steps the fake clock one heartbeat interval at a time
// (with short real pauses so goroutines observe each tick) until cond
// fires or the step budget runs out.
func advanceUntil(clk *resilience.FakeClock, interval time.Duration, steps int, cond func() bool) bool {
	for i := 0; i < steps; i++ {
		if cond() {
			return true
		}
		clk.Advance(interval)
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// TestHeartbeatReapsSilentSwitch drives the reaper with a frozen
// clock: a switch that completes the handshake but never answers
// ECHOes is reaped after the missed-beat threshold, surfacing as
// SwitchDisconnected.
func TestHeartbeatReapsSilentSwitch(t *testing.T) {
	h := newRecordingHandler()
	ep := NewControllerEndpoint(h, nil)
	clk := resilience.NewFakeClock(time.Unix(1000, 0))
	ep.clock = clk // before Listen: nothing reads it yet
	const interval = time.Second
	ep.SetHeartbeat(interval, 2)
	addr, err := ep.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	fakeSwitch(t, addr, 42, false /* play dead */)
	select {
	case dpid := <-h.connected:
		if dpid != 42 {
			t.Fatalf("connected dpid = %d, want 42", dpid)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SwitchConnected never fired")
	}
	before := mSessionsReaped.Value()

	reaped := advanceUntil(clk, interval, 20, func() bool {
		select {
		case dpid := <-h.disconnected:
			if dpid != 42 {
				t.Fatalf("disconnected dpid = %d, want 42", dpid)
			}
			return true
		default:
			return false
		}
	})
	if !reaped {
		t.Fatal("silent switch was never reaped: SwitchDisconnected did not fire")
	}
	if got := mSessionsReaped.Value(); got != before+1 {
		t.Fatalf("sessions_reaped = %d, want %d", got, before+1)
	}
	if got := len(ep.Switches()); got != 0 {
		t.Fatalf("Switches() = %d after reap, want 0", got)
	}
}

// TestHeartbeatKeepsResponsiveSwitch verifies a switch that pongs
// survives many heartbeat intervals.
func TestHeartbeatKeepsResponsiveSwitch(t *testing.T) {
	h := newRecordingHandler()
	ep := NewControllerEndpoint(h, nil)
	clk := resilience.NewFakeClock(time.Unix(1000, 0))
	ep.clock = clk // before Listen: nothing reads it yet
	const interval = time.Second
	ep.SetHeartbeat(interval, 2)
	addr, err := ep.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	fakeSwitch(t, addr, 7, true /* answer echoes */)
	select {
	case <-h.connected:
	case <-time.After(2 * time.Second):
		t.Fatal("SwitchConnected never fired")
	}

	for i := 0; i < 10; i++ {
		clk.Advance(interval)
		time.Sleep(10 * time.Millisecond)
		select {
		case dpid := <-h.disconnected:
			t.Fatalf("responsive switch %d reaped at tick %d", dpid, i)
		default:
		}
	}
	if got := len(ep.Switches()); got != 1 {
		t.Fatalf("Switches() = %d, want 1", got)
	}
}
