package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"iotsec/internal/openflow"
	"iotsec/internal/packet"
)

// rig is a switch with n ports. Port.Send counts every frame it is
// handed and the fabric never starts, so TxFrames says exactly which
// ports a frame was handed to, synchronously and without a running
// fabric.
type rig struct {
	sw    *Switch
	ports []*Port // ports[i] has ID i+1
}

// newPinnedRig plugs n hosts in with Attach, the shipped way: port i
// pins macOf(i).
func newPinnedRig(n int, macOf func(uint16) packet.MACAddress) *rig {
	net := NewNetwork()
	r := &rig{sw: NewSwitch("sw", 1)}
	for i := 1; i <= n; i++ {
		host := net.NewPort(newSink(fmt.Sprintf("h%d", i)), 1)
		r.ports = append(r.ports, r.sw.Attach(net, host, macOf(uint16(i))))
	}
	return r
}

// newFloodingRig is the oracle: n unwired ports and a priority-0
// MatchAll → Flood entry, so every frame reaches every other port.
func newFloodingRig(n int) *rig {
	net := NewNetwork()
	r := &rig{sw: NewSwitch("sw", 1)}
	tableMiss(r.sw, openflow.Flood())
	for i := 1; i <= n; i++ {
		r.ports = append(r.ports, r.sw.AttachPort(net, uint16(i)))
	}
	return r
}

// deliver hands the switch one frame on the given port and returns the
// IDs of the ports it came out of.
func (r *rig) deliver(ingress uint16, f Frame) map[uint16]bool {
	before := make([]uint64, len(r.ports))
	for i, p := range r.ports {
		before[i] = p.Stats().TxFrames
	}
	r.sw.HandleFrame(r.ports[ingress-1], f)
	out := map[uint16]bool{}
	for i, p := range r.ports {
		switch d := p.Stats().TxFrames - before[i]; d {
		case 0:
		case 1:
			out[p.ID] = true
		default:
			panic(fmt.Sprintf("port %d was handed one frame %d times", p.ID, d))
		}
	}
	return out
}

// TestPinnedForwardingOracle checks the switch's forwarding model —
// one eth_dst=<MAC> → output:<port> pin per attachment, broadcast →
// flood, everything else a dropped miss — against a switch that floods
// every frame: for random frames among N pinned MACs
// the pinned switch delivers to exactly the owner (known unicast), to
// everyone but the sender (broadcast), or to no one (unknown), and
// never to a port the flooding switch would not also have reached.
func TestPinnedForwardingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for round := 0; round < 50; round++ {
		n := 2 + rng.Intn(14)
		macOf := func(port uint16) packet.MACAddress { return packet.MACAddress{2, 0, 0, byte(round), 0, byte(port)} }
		pinned, flooding := newPinnedRig(n, macOf), newFloodingRig(n)
		dropped := uint64(0)
		for i := 0; i < 200; i++ {
			ingress := uint16(1 + rng.Intn(n))
			src := macOf(ingress)
			if rng.Intn(8) == 0 {
				src = packet.MACAddress{2, 0xbb, 0, 0, 0, byte(i)} // a sender nobody pinned
			}
			var dst packet.MACAddress
			want := map[uint16]bool{}
			switch rng.Intn(3) {
			case 0: // known unicast, to some other port's MAC
				owner := uint16(1 + rng.Intn(n-1))
				if owner >= ingress {
					owner++
				}
				dst = macOf(owner)
				want[owner] = true
			case 1:
				dst = packet.BroadcastMAC
				for port := uint16(1); port <= uint16(n); port++ {
					if port != ingress {
						want[port] = true
					}
				}
			default: // a MAC nothing attached
				dst = packet.MACAddress{2, 0xde, 0xad, byte(round), 0, byte(i)}
				dropped++
			}
			f := buildFrame(t, src, dst, ip1, ip2, uint16(1024+i))
			got := pinned.deliver(ingress, f)
			if len(got) != len(want) {
				t.Fatalf("round %d frame %d (%s → %s in on %d): delivered to %v, want %v", round, i, src, dst, ingress, got, want)
			}
			flooded := flooding.deliver(ingress, f)
			for port := range got {
				if !want[port] {
					t.Fatalf("round %d frame %d (%s → %s in on %d): delivered to %v, want %v", round, i, src, dst, ingress, got, want)
				}
				if !flooded[port] {
					t.Fatalf("round %d frame %d: port %d got the frame under pins but not under flood %v", round, i, port, flooded)
				}
			}
		}
		if _, _, got, _ := pinned.sw.Stats(); got != dropped {
			t.Fatalf("round %d: %d table misses, want %d (one per unknown destination)", round, got, dropped)
		}
		if _, _, got, _ := flooding.sw.Stats(); got != 0 {
			t.Fatalf("round %d: a flooding switch counted %d table misses", round, got)
		}
	}
}
