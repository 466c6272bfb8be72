package openflow

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"iotsec/internal/packet"
)

// randMatch draws a match with a random subset of concrete fields,
// biased toward values from small pools so random packets actually hit.
func randMatch(rng *rand.Rand) Match {
	m := MatchAll()
	if rng.Intn(3) == 0 {
		m = m.WithInPort(uint16(rng.Intn(4)))
	}
	if rng.Intn(4) == 0 {
		m = m.WithEthSrc(packet.MACAddress{2, 0, 0, 0, 0, byte(rng.Intn(4))})
	}
	if rng.Intn(4) == 0 {
		m = m.WithEthDst(packet.MACAddress{2, 0, 0, 0, 0, byte(rng.Intn(4))})
	}
	if rng.Intn(3) == 0 {
		ip := packet.IPv4Address{10, 0, byte(rng.Intn(3)), byte(rng.Intn(6))}
		masks := []uint8{32, 32, 24, 16, 8, 0}
		m = m.WithSrcIP(ip, masks[rng.Intn(len(masks))])
	}
	if rng.Intn(3) == 0 {
		ip := packet.IPv4Address{10, 0, byte(rng.Intn(3)), byte(rng.Intn(6))}
		masks := []uint8{32, 32, 24, 16}
		m = m.WithDstIP(ip, masks[rng.Intn(len(masks))])
	}
	if rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			m = m.WithProto(packet.IPProtocolTCP)
		} else {
			m = m.WithProto(packet.IPProtocolUDP)
		}
	}
	if rng.Intn(4) == 0 {
		m = m.WithTpSrc(uint16(1000 + rng.Intn(4)))
	}
	if rng.Intn(4) == 0 {
		m = m.WithTpDst([]uint16{80, 443, 53, 8080}[rng.Intn(4)])
	}
	return m
}

// randPacket serializes a random frame from the same pools randMatch
// draws from; a few percent are ARP (no IP layer at all).
func randPacket(t testing.TB, rng *rand.Rand) *packet.Packet {
	t.Helper()
	src := packet.MACAddress{2, 0, 0, 0, 0, byte(rng.Intn(4))}
	dst := packet.MACAddress{2, 0, 0, 0, 0, byte(rng.Intn(4))}
	srcIP := packet.IPv4Address{10, 0, byte(rng.Intn(3)), byte(rng.Intn(6))}
	dstIP := packet.IPv4Address{10, 0, byte(rng.Intn(3)), byte(rng.Intn(6))}
	b := packet.NewSerializeBuffer()
	var err error
	switch rng.Intn(10) {
	case 0: // ARP: exercises the "no IP/transport layer" paths
		err = packet.SerializeLayers(b,
			&packet.Ethernet{SrcMAC: src, DstMAC: dst, EtherType: packet.EtherTypeARP},
			&packet.ARP{Operation: packet.ARPRequest, SenderMAC: src, SenderIP: srcIP, TargetIP: dstIP},
		)
	case 1, 2, 3: // UDP
		udp := &packet.UDP{SrcPort: uint16(1000 + rng.Intn(4)), DstPort: []uint16{80, 443, 53, 8080}[rng.Intn(4)]}
		udp.SetNetworkForChecksum(srcIP, dstIP)
		err = packet.SerializeLayers(b,
			&packet.Ethernet{SrcMAC: src, DstMAC: dst, EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{SrcIP: srcIP, DstIP: dstIP, Protocol: packet.IPProtocolUDP},
			udp,
		)
	default: // TCP
		tcp := &packet.TCP{SrcPort: uint16(1000 + rng.Intn(4)), DstPort: []uint16{80, 443, 53, 8080}[rng.Intn(4)], Flags: packet.TCPSyn}
		tcp.SetNetworkForChecksum(srcIP, dstIP)
		err = packet.SerializeLayers(b,
			&packet.Ethernet{SrcMAC: src, DstMAC: dst, EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{SrcIP: srcIP, DstIP: dstIP, Protocol: packet.IPProtocolTCP},
			tcp,
		)
	}
	if err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return packet.Decode(b.Bytes(), packet.LayerTypeEthernet)
}

// TestLookupEquivalenceOracle drives the tuple-space index against the
// linear-scan reference over randomized tables and packets: the indexed
// lookup must return the identical winning entry (same priority, same
// tie-break toward earlier install) on every packet.
func TestLookupEquivalenceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1dc))
	const tables = 25
	const packetsPerTable = 500 // 25 × 500 = 12,500 ≥ 10⁴ lookups
	for ti := 0; ti < tables; ti++ {
		tbl := NewFlowTable()
		entries := 1 + rng.Intn(60)
		for i := 0; i < entries; i++ {
			tbl.Insert(FlowEntry{
				Match:    randMatch(rng),
				Priority: uint16(rng.Intn(8)), // few levels → many ties
				Cookie:   uint64(i + 1),       // identifies the entry
				Actions:  []Action{Output(uint16(i))},
			})
		}
		// Random churn so the oracle also sees post-delete state.
		if rng.Intn(2) == 0 {
			tbl.Delete(randMatch(rng))
		}
		for pi := 0; pi < packetsPerTable; pi++ {
			p := randPacket(t, rng)
			inPort := uint16(rng.Intn(4))
			want, wantOK := tbl.lookupLinear(p, inPort)
			got, gotOK := tbl.Lookup(p, inPort, 64)
			if wantOK != gotOK {
				t.Fatalf("table %d packet %d: indexed ok=%v, linear ok=%v (pkt %s)", ti, pi, gotOK, wantOK, p)
			}
			if !gotOK {
				continue
			}
			if got.Cookie != want.Cookie || got.Priority != want.Priority || got.Match != want.Match {
				t.Fatalf("table %d packet %d: indexed chose cookie=%d prio=%d %q; linear chose cookie=%d prio=%d %q",
					ti, pi, got.Cookie, got.Priority, got.Match, want.Cookie, want.Priority, want.Match)
			}
		}
	}
}

// TestInsertPreservesCounters covers the quarantine re-push path: the
// agent re-installs the same drop rule on every sync, which must not
// zero the hit counters (OpenFlow modify semantics).
func TestInsertPreservesCounters(t *testing.T) {
	tbl := NewFlowTable()
	drop := FlowEntry{
		Match:    MatchAll().WithEthSrc(packet.MACAddress{2, 0, 0, 0, 0, 9}),
		Priority: 400,
		Cookie:   42,
	}
	tbl.Insert(drop)
	p := makeTCPFrom(t, packet.MACAddress{2, 0, 0, 0, 0, 9})
	for i := 0; i < 5; i++ {
		if _, ok := tbl.Lookup(p, 1, 100); !ok {
			t.Fatal("expected hit")
		}
	}
	// Controller re-pushes the identical rule (e.g. quarantine
	// re-sync after reconnect).
	drop.Actions = []Action{} // same match+priority, refreshed actions
	tbl.Insert(drop)
	pk, by := tbl.Entries()[0].Stats()
	if pk != 5 || by != 500 {
		t.Fatalf("counters after re-push: packets=%d bytes=%d, want 5/500", pk, by)
	}
	// A replacement still resets timeouts from "now" and keeps the
	// original tie-break position.
	if n := tbl.Len(); n != 1 {
		t.Fatalf("len=%d after replace, want 1", n)
	}
}

func makeTCPFrom(t *testing.T, src packet.MACAddress) *packet.Packet {
	t.Helper()
	tcp := &packet.TCP{SrcPort: 1234, DstPort: 80, Flags: packet.TCPSyn}
	srcIP := packet.MustParseIPv4("10.0.0.9")
	dstIP := packet.MustParseIPv4("10.0.0.1")
	tcp.SetNetworkForChecksum(srcIP, dstIP)
	b := packet.NewSerializeBuffer()
	if err := packet.SerializeLayers(b,
		&packet.Ethernet{SrcMAC: src, DstMAC: packet.MACAddress{2, 0, 0, 0, 0, 1}, EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{SrcIP: srcIP, DstIP: dstIP, Protocol: packet.IPProtocolTCP},
		tcp,
	); err != nil {
		t.Fatal(err)
	}
	return packet.Decode(b.Bytes(), packet.LayerTypeEthernet)
}

// TestCompactionClearsTail verifies Delete/Expire nil the compacted
// slice tail so evicted entries are not pinned against GC.
func TestCompactionClearsTail(t *testing.T) {
	tbl := NewFlowTable()
	for i := 0; i < 8; i++ {
		tbl.Insert(FlowEntry{
			Match:    MatchAll().WithTpDst(uint16(1000 + i)),
			Priority: 10,
			Cookie:   uint64(i + 1),
		})
	}
	if removed := tbl.DeleteByCookie(3); removed != 1 {
		t.Fatalf("removed=%d, want 1", removed)
	}
	tbl.Delete(MatchAll().WithTpDst(1005))
	tail := tbl.nodes[len(tbl.nodes):cap(tbl.nodes)]
	for i, n := range tail {
		if n != nil {
			t.Fatalf("backing-array tail slot %d still holds %v after compaction", i, n.FlowEntry.String())
		}
	}
	// Expire-driven compaction must clear the tail too.
	tbl.Insert(FlowEntry{Match: MatchAll().WithTpDst(2000), Priority: 1, HardTimeout: time.Nanosecond})
	time.Sleep(time.Millisecond)
	if exp := tbl.Expire(time.Now()); len(exp) != 1 {
		t.Fatalf("expired %d entries, want 1", len(exp))
	}
	tail = tbl.nodes[len(tbl.nodes):cap(tbl.nodes)]
	for i, n := range tail {
		if n != nil {
			t.Fatalf("tail slot %d still set after Expire", i)
		}
	}
}

// TestGenerationCounter: the generation advances on structural changes
// only, so Entries() snapshots can be cached against it.
func TestGenerationCounter(t *testing.T) {
	tbl := NewFlowTable()
	g0 := tbl.Generation()
	tbl.Insert(FlowEntry{Match: MatchAll(), Priority: 1})
	g1 := tbl.Generation()
	if g1 == g0 {
		t.Fatal("Insert did not advance the generation")
	}
	p := makeTCPFrom(t, packet.MACAddress{2, 0, 0, 0, 0, 9})
	tbl.Lookup(p, 0, 64)
	if tbl.Generation() != g1 {
		t.Fatal("Lookup hit advanced the generation")
	}
	// The cached Entries order must still expose fresh counters.
	if pk, _ := tbl.Entries()[0].Stats(); pk != 1 {
		t.Fatalf("cached snapshot shows %d packets, want 1", pk)
	}
	tbl.Lookup(p, 0, 64)
	if pk, _ := tbl.Entries()[0].Stats(); pk != 2 {
		t.Fatalf("cached snapshot shows stale counters after second hit")
	}
	tbl.Delete(MatchAll())
	if tbl.Generation() == g1 {
		t.Fatal("Delete did not advance the generation")
	}
}

// TestFlowTableConcurrentStress hammers Lookup/Insert/Delete/Expire/
// Entries from many goroutines; run under -race this proves the RLock +
// atomic-counter scheme is sound.
func TestFlowTableConcurrentStress(t *testing.T) {
	tbl := NewFlowTable()
	for i := 0; i < 32; i++ {
		tbl.Insert(FlowEntry{
			Match:    MatchAll().WithTpDst(uint16(80 + i%8)),
			Priority: uint16(i % 4),
			Cookie:   uint64(i + 1),
		})
	}
	pkts := make([]*packet.Packet, 8)
	rng := rand.New(rand.NewSource(7))
	for i := range pkts {
		pkts[i] = randPacket(t, rng)
	}

	const goroutines = 8
	const opsPerG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsPerG; i++ {
				switch rng.Intn(10) {
				case 0:
					tbl.Insert(FlowEntry{
						Match:    MatchAll().WithTpDst(uint16(80 + rng.Intn(8))),
						Priority: uint16(rng.Intn(4)),
						Cookie:   uint64(rng.Intn(32) + 1),
					})
				case 1:
					tbl.DeleteByCookie(uint64(rng.Intn(32) + 1))
				case 2:
					tbl.Expire(time.Now())
				case 3:
					tbl.Entries()
				default:
					tbl.Lookup(pkts[rng.Intn(len(pkts))], uint16(rng.Intn(4)), 64)
				}
			}
		}(g)
	}
	wg.Wait()

	// The table must still agree with the linear reference afterwards.
	for _, p := range pkts {
		want, wantOK := tbl.lookupLinear(p, 0)
		got, gotOK := tbl.Lookup(p, 0, 64)
		if wantOK != gotOK || (gotOK && got.Match != want.Match) {
			t.Fatalf("post-stress divergence: indexed (%v,%v) vs linear (%v,%v)", got, gotOK, want, wantOK)
		}
	}
}

// BenchmarkFlowTableLookupParallel measures lookup scalability under
// concurrent readers (the serialization bug this PR fixes would flatline
// this benchmark).
func BenchmarkFlowTableLookupParallel(b *testing.B) {
	tbl := NewFlowTable()
	for i := 0; i < 1000; i++ {
		tbl.Insert(FlowEntry{Match: MatchAll().WithTpDst(uint16(i + 1)), Priority: uint16(i % 7)})
	}
	rng := rand.New(rand.NewSource(1))
	p := randPacket(b, rng)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tbl.Lookup(p, 0, 64)
		}
	})
}

var _ = fmt.Sprintf // keep fmt linked for debug helpers

// lookupLinear is the pre-index reference: scan every entry, keep the
// (priority desc, install-order asc) winner. The oracle for the
// indexed-vs-linear equivalence tests.
func (t *FlowTable) lookupLinear(p *packet.Packet, inPort uint16) (FlowEntry, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var best *flowNode
	for _, n := range t.nodes {
		if !n.Match.Matches(p, inPort) {
			continue
		}
		if best == nil || n.Priority > best.Priority ||
			(n.Priority == best.Priority && n.seq < best.seq) {
			best = n
		}
	}
	if best == nil {
		return FlowEntry{}, false
	}
	return best.snapshot(), true
}
