package openflow

import (
	"testing"

	"iotsec/internal/packet"
)

var (
	macA = packet.MACAddress{2, 0, 0, 0, 0, 0xa}
	macB = packet.MACAddress{2, 0, 0, 0, 0, 0xb}
	ipA  = packet.MustParseIPv4("10.1.0.5")
	ipB  = packet.MustParseIPv4("10.2.0.9")
)

// makeTCP builds a decoded eth/ip/tcp packet for match tests.
func makeTCP(t *testing.T, srcPort, dstPort uint16) *packet.Packet {
	t.Helper()
	tcp := &packet.TCP{SrcPort: srcPort, DstPort: dstPort, Flags: packet.TCPSyn}
	tcp.SetNetworkForChecksum(ipA, ipB)
	b := packet.NewSerializeBuffer()
	err := packet.SerializeLayers(b,
		&packet.Ethernet{SrcMAC: macA, DstMAC: macB, EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{SrcIP: ipA, DstIP: ipB, Protocol: packet.IPProtocolTCP},
		tcp,
	)
	if err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return packet.Decode(b.Bytes(), packet.LayerTypeEthernet)
}

func TestMatchAllMatchesEverything(t *testing.T) {
	p := makeTCP(t, 1, 2)
	if !MatchAll().Matches(p, 7) {
		t.Error("MatchAll should match any packet")
	}
}

func TestMatchFields(t *testing.T) {
	p := makeTCP(t, 4444, 80)
	cases := []struct {
		name string
		m    Match
		want bool
	}{
		{"in_port hit", MatchAll().WithInPort(3), true},
		{"in_port miss", MatchAll().WithInPort(4), false},
		{"eth_src hit", MatchAll().WithEthSrc(macA), true},
		{"eth_src miss", MatchAll().WithEthSrc(macB), false},
		{"eth_dst hit", MatchAll().WithEthDst(macB), true},
		{"src ip exact hit", MatchAll().WithSrcIP(ipA, 32), true},
		{"src ip exact miss", MatchAll().WithSrcIP(ipB, 32), false},
		{"src ip prefix hit", MatchAll().WithSrcIP(packet.MustParseIPv4("10.1.0.0"), 16), true},
		{"src ip prefix miss", MatchAll().WithSrcIP(packet.MustParseIPv4("10.2.0.0"), 16), false},
		{"dst ip hit", MatchAll().WithDstIP(ipB, 32), true},
		{"proto hit", MatchAll().WithProto(packet.IPProtocolTCP), true},
		{"proto miss", MatchAll().WithProto(packet.IPProtocolUDP), false},
		{"tp_src hit", MatchAll().WithTpSrc(4444), true},
		{"tp_src miss", MatchAll().WithTpSrc(4445), false},
		{"tp_dst hit", MatchAll().WithTpDst(80), true},
		{"tp_dst miss", MatchAll().WithTpDst(81), false},
		{"combined hit", MatchIPv4().WithDstIP(ipB, 32).WithProto(packet.IPProtocolTCP).WithTpDst(80), true},
		{"combined miss on one field", MatchIPv4().WithDstIP(ipB, 32).WithProto(packet.IPProtocolTCP).WithTpDst(81), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.m.Matches(p, 3); got != c.want {
				t.Errorf("match %q on packet: got %v, want %v", c.m, got, c.want)
			}
		})
	}
}

func TestMatchARPPacketAgainstIPFields(t *testing.T) {
	b := packet.NewSerializeBuffer()
	err := packet.SerializeLayers(b,
		&packet.Ethernet{SrcMAC: macA, DstMAC: packet.BroadcastMAC, EtherType: packet.EtherTypeARP},
		&packet.ARP{Operation: packet.ARPRequest, SenderMAC: macA, SenderIP: ipA, TargetIP: ipB},
	)
	if err != nil {
		t.Fatal(err)
	}
	p := packet.Decode(b.Bytes(), packet.LayerTypeEthernet)
	// An IP-field match must not match a non-IP packet.
	if MatchAll().WithSrcIP(ipA, 32).Matches(p, 0) {
		t.Error("IP match should fail on ARP packet")
	}
	if !MatchAll().WithEthSrc(macA).Matches(p, 0) {
		t.Error("L2 match should succeed on ARP packet")
	}
}

func TestPrefixMatches(t *testing.T) {
	a := packet.MustParseIPv4("192.168.17.5")
	if !prefixMatches(packet.MustParseIPv4("192.168.0.0"), a, 16) {
		t.Error("/16 should match")
	}
	if prefixMatches(packet.MustParseIPv4("192.169.0.0"), a, 16) {
		t.Error("different /16 should not match")
	}
	if !prefixMatches(packet.IPv4Address{}, a, 0) {
		t.Error("/0 should match anything")
	}
	if !prefixMatches(a, a, 32) {
		t.Error("/32 exact should match")
	}
}

func TestMatchString(t *testing.T) {
	if MatchAll().String() != "any" {
		t.Errorf("MatchAll string = %q", MatchAll())
	}
	m := MatchIPv4().WithDstIP(ipB, 32).WithTpDst(80)
	s := m.String()
	for _, want := range []string{"dst=10.2.0.9/32", "tp_dst=80"} {
		if !contains(s, want) {
			t.Errorf("match string %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// MatchIPv4 matches all IPv4 traffic to or from nothing in
// particular; callers narrow it with the With* helpers.
func MatchIPv4() Match {
	m := MatchAll()
	m.Wildcards &^= WEtherType
	m.EtherType = packet.EtherTypeIPv4
	return m
}

// WithInPort narrows the match to one ingress port.
func (m Match) WithInPort(p uint16) Match {
	m.Wildcards &^= WInPort
	m.InPort = p
	return m
}
