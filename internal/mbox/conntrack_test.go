package mbox

import (
	"testing"

	"iotsec/internal/packet"
)

var (
	ctDevice = packet.MustParseIPv4("10.0.0.2")
	ctRemote = packet.MustParseIPv4("10.0.0.1")
)

// segment builds one TCP segment of the flow device:devPort ↔
// remote:remotePort, travelling in dir.
func segment(t testing.TB, dir Direction, devPort, remotePort uint16, flags packet.TCPFlags) *Context {
	t.Helper()
	src, dst, sport, dport := ctRemote, ctDevice, remotePort, devPort
	if dir == FromDevice {
		src, dst, sport, dport = ctDevice, ctRemote, devPort, remotePort
	}
	tcp := &packet.TCP{SrcPort: sport, DstPort: dport, Seq: 1, Ack: 1, Flags: flags}
	tcp.SetNetworkForChecksum(src, dst)
	b := packet.NewSerializeBuffer()
	if err := packet.SerializeLayers(b,
		&packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{SrcIP: src, DstIP: dst, Protocol: packet.IPProtocolTCP},
		tcp,
	); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), b.Bytes()...)
	return &Context{Frame: frame, Packet: packet.Decode(frame, packet.LayerTypeEthernet), Dir: dir}
}

func conntrackEvicted() uint64 { return mConntrackEvicted.Value() }

// TestConntrackForgetsClosedFlows: device-initiated sessions that TCP
// tears down leave nothing behind, however many there were, and once a
// flow is forgotten an inbound segment on it is dropped.
func TestConntrackForgetsClosedFlows(t *testing.T) {
	fw := NewStatefulFirewall()
	before := conntrackEvicted()
	pass := func(what string, ctx *Context) {
		t.Helper()
		if v := fw.Process(ctx); v != Forward {
			t.Fatalf("%s: %v, want forward", what, v)
		}
	}
	const ack = packet.TCPAck
	for i := 0; i < 10_000; i++ {
		port := uint16(20000 + i)
		pass("syn", segment(t, FromDevice, port, 443, packet.TCPSyn))
		pass("syn-ack on the live flow", segment(t, ToDevice, port, 443, packet.TCPSyn|ack))
		pass("request", segment(t, FromDevice, port, 443, packet.TCPPsh|ack))
		pass("reply on the live flow", segment(t, ToDevice, port, 443, packet.TCPPsh|ack))
		if i%2 == 0 {
			// Orderly close, remote first; the last ACK still passes.
			pass("remote fin", segment(t, ToDevice, port, 443, packet.TCPFin|ack))
			pass("device fin", segment(t, FromDevice, port, 443, packet.TCPFin|ack))
			pass("last ack", segment(t, ToDevice, port, 443, ack))
		} else {
			pass("reset", segment(t, ToDevice, port, 443, packet.TCPRst))
		}
		if got := tracked(fw); got != 0 {
			t.Fatalf("session %d left %d flows tracked, want 0", i, got)
		}
	}
	if v := fw.Process(segment(t, ToDevice, 20000, 443, packet.TCPPsh|ack)); v != Drop {
		t.Fatalf("inbound segment on a closed flow: %v, want drop", v)
	}
	if got := conntrackEvicted() - before; got != 0 {
		t.Fatalf("%d evictions for flows that all closed, want 0", got)
	}
}

// TestConntrackBoundedWhenFlowsNeverClose: 100k sessions that are
// opened and abandoned hold at most conntrackCap entries; the rest were
// forgotten oldest-first and counted, the recent ones still answer, and
// a forgotten one is dropped until the device speaks on it again.
func TestConntrackBoundedWhenFlowsNeverClose(t *testing.T) {
	fw := NewStatefulFirewall()
	before := conntrackEvicted()
	const n = 100_000
	const ack = packet.TCPAck
	// 50,000 device ports × 2 remote ports: 100k distinct flows.
	open := func(i int) (devPort, remotePort uint16) { return uint16(10000 + i%50000), uint16(443 + i/50000) }
	for i := 0; i < n; i++ {
		d, r := open(i)
		if v := fw.Process(segment(t, FromDevice, d, r, packet.TCPSyn)); v != Forward {
			t.Fatalf("outbound syn %d: %v", i, v)
		}
		if got := tracked(fw); got > conntrackCap {
			t.Fatalf("%d flows tracked after %d sessions, want ≤ %d", got, i+1, conntrackCap)
		}
	}
	if got := conntrackEvicted() - before; got != n-conntrackCap {
		t.Fatalf("evicted = %d, want %d", got, n-conntrackCap)
	}
	d, r := open(n - 1)
	if v := fw.Process(segment(t, ToDevice, d, r, packet.TCPSyn|ack)); v != Forward {
		t.Fatalf("reply on the newest flow: %v, want forward", v)
	}
	d, r = open(0)
	if v := fw.Process(segment(t, ToDevice, d, r, packet.TCPSyn|ack)); v != Drop {
		t.Fatalf("reply on a flow forgotten 95k sessions ago: %v, want drop (fail-closed)", v)
	}
	if v := fw.Process(segment(t, FromDevice, d, r, packet.TCPPsh|ack)); v != Forward {
		t.Fatalf("device segment on the forgotten flow: %v", v)
	}
	if v := fw.Process(segment(t, ToDevice, d, r, packet.TCPPsh|ack)); v != Forward {
		t.Fatalf("reply after the device re-established the flow: %v, want forward", v)
	}
}

// TestConntrackSkipsOpenPorts: sessions served on a port that is open
// to the world are not tracked at all — the camera answering 100k
// management requests holds no state for them.
func TestConntrackSkipsOpenPorts(t *testing.T) {
	fw := NewStatefulFirewall(80)
	const ack = packet.TCPAck
	for i := 0; i < 100_000; i++ {
		client := uint16(32768 + i%32768)
		for _, ctx := range []*Context{
			segment(t, ToDevice, 80, client, packet.TCPSyn),
			segment(t, FromDevice, 80, client, packet.TCPSyn|ack),
			segment(t, ToDevice, 80, client, packet.TCPPsh|ack),
			segment(t, FromDevice, 80, client, packet.TCPPsh|ack),
			segment(t, ToDevice, 80, client, packet.TCPFin|ack),
			segment(t, FromDevice, 80, client, ack),
		} {
			if v := fw.Process(ctx); v != Forward {
				t.Fatalf("session %d: %v, want forward", i, v)
			}
		}
	}
	if got := tracked(fw); got != 0 {
		t.Fatalf("%d flows tracked for sessions on an open port, want 0", got)
	}
	// The open port does not open the rest of the device.
	if v := fw.Process(segment(t, ToDevice, 8080, 40000, packet.TCPSyn)); v != Drop {
		t.Fatalf("unsolicited inbound on a closed port: %v, want drop", v)
	}
}

// tracked reports how many flows the connection table holds.
func tracked(f *StatefulFirewall) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flows.Len()
}
