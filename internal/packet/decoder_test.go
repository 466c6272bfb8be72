package packet

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// fuzzSeeds builds the corpus for the Decoder↔decodeReference
// equivalence check: well-formed frames for every layer chain the
// decoder knows, plus malformed and truncated variants that must
// produce byte-identical failure layers.
func fuzzSeeds(t testing.TB) []struct {
	name  string
	data  []byte
	first LayerType
} {
	t.Helper()
	mk := func(layers ...SerializableLayer) []byte {
		b := NewSerializeBuffer()
		if err := SerializeLayers(b, layers...); err != nil {
			t.Fatalf("seed serialize: %v", err)
		}
		return b.Bytes()
	}
	tcp := &TCP{SrcPort: 31337, DstPort: 80, Seq: 100, Ack: 200, Flags: TCPPsh | TCPAck}
	tcp.SetNetworkForChecksum(testSrcIP, testDstIP)
	tcpFrame := mk(
		&Ethernet{SrcMAC: testSrcMAC, DstMAC: testDstMAC, EtherType: EtherTypeIPv4},
		&IPv4{SrcIP: testSrcIP, DstIP: testDstIP, Protocol: IPProtocolTCP},
		tcp,
		NewPayload([]byte("GET /admin HTTP/1.0\r\n\r\n")),
	)
	udpFrame := mk(
		&Ethernet{SrcMAC: testSrcMAC, DstMAC: testDstMAC, EtherType: EtherTypeIPv4},
		&IPv4{SrcIP: testSrcIP, DstIP: testDstIP, Protocol: IPProtocolUDP},
		&UDP{SrcPort: 5353, DstPort: 9999},
		NewPayload([]byte("hello")),
	)
	dnsFrame := mk(
		&Ethernet{SrcMAC: testSrcMAC, DstMAC: testDstMAC, EtherType: EtherTypeIPv4},
		&IPv4{SrcIP: testSrcIP, DstIP: testDstIP, Protocol: IPProtocolUDP},
		&UDP{SrcPort: 4444, DstPort: 53},
		&DNS{ID: 0xbeef, RecDesired: true,
			Questions: []DNSQuestion{{Name: "iot.example.com", Type: DNSTypeA, Class: DNSClassIN}}},
	)
	dnsRespFrame := mk(
		&Ethernet{SrcMAC: testSrcMAC, DstMAC: testDstMAC, EtherType: EtherTypeIPv4},
		&IPv4{SrcIP: testSrcIP, DstIP: testDstIP, Protocol: IPProtocolUDP},
		&UDP{SrcPort: 53, DstPort: 4444},
		&DNS{ID: 0xbeef, Response: true,
			Questions: []DNSQuestion{{Name: "iot.example.com", Type: DNSTypeA, Class: DNSClassIN}},
			Answers:   []DNSResourceRecord{{Name: "iot.example.com", Type: DNSTypeA, Class: DNSClassIN, TTL: 300, Data: []byte{10, 0, 0, 42}}}},
	)
	arpFrame := mk(
		&Ethernet{SrcMAC: testSrcMAC, DstMAC: BroadcastMAC, EtherType: EtherTypeARP},
		&ARP{Operation: ARPRequest, SenderMAC: testSrcMAC, SenderIP: testSrcIP, TargetIP: testDstIP},
	)
	unknownEther := mk(&Ethernet{SrcMAC: testSrcMAC, DstMAC: testDstMAC, EtherType: EtherType(0x88cc)})
	unknownEther = append(unknownEther, []byte{0xde, 0xad, 0xbe, 0xef}...)

	// Malformed variants.
	badIHL := append([]byte(nil), tcpFrame...)
	badIHL[14] = 0x4f // IHL=15 (60-byte header) but frame is shorter
	badProto := append([]byte(nil), udpFrame...)
	badProto[23] = 0xfd // unknown IP protocol → payload fallback
	dnsGarbage := append(append([]byte(nil), dnsFrame[:42]...), 0x01, 0x02, 0x03)

	seeds := []struct {
		name  string
		data  []byte
		first LayerType
	}{
		{"tcp", tcpFrame, LayerTypeEthernet},
		{"udp", udpFrame, LayerTypeEthernet},
		{"dns-query", dnsFrame, LayerTypeEthernet},
		{"dns-response", dnsRespFrame, LayerTypeEthernet},
		{"arp", arpFrame, LayerTypeEthernet},
		{"unknown-ethertype", unknownEther, LayerTypeEthernet},
		{"bad-ihl", badIHL, LayerTypeEthernet},
		{"bad-ip-proto", badProto, LayerTypeEthernet},
		{"dns-garbage", dnsGarbage, LayerTypeEthernet},
		{"empty", nil, LayerTypeEthernet},
		{"one-byte", []byte{0x42}, LayerTypeEthernet},
		{"ip-first", tcpFrame[14:], LayerTypeIPv4},
		{"udp-first", dnsFrame[34:], LayerTypeUDP},
		{"dns-first", dnsRespFrame[42:], LayerTypeDNS},
		{"unknown-first", tcpFrame, LayerType(99)},
	}
	// Truncations of every well-formed frame at assorted boundaries:
	// mid-ethernet, mid-IP, mid-transport, mid-DNS.
	for _, src := range []struct {
		name string
		data []byte
	}{{"tcp", tcpFrame}, {"udp", udpFrame}, {"dns", dnsRespFrame}, {"arp", arpFrame}} {
		for _, n := range []int{1, 7, 13, 14, 20, 25, 33, 34, 38, 41, 42, 45} {
			if n >= len(src.data) {
				continue
			}
			seeds = append(seeds, struct {
				name  string
				data  []byte
				first LayerType
			}{fmt.Sprintf("%s-trunc-%d", src.name, n), src.data[:n], LayerTypeEthernet})
		}
	}
	return seeds
}

// samePacket asserts two decode results are byte-identical: same layer
// types in order, same LayerContents/LayerPayload bytes, same error
// layer, same String rendering.
func samePacket(t *testing.T, name string, got, want *Packet) {
	t.Helper()
	gl, wl := got.Layers(), want.Layers()
	if len(gl) != len(wl) {
		t.Fatalf("%s: %d layers, reference has %d (got %v, want %v)", name, len(gl), len(wl), got, want)
	}
	for i := range gl {
		if gl[i].LayerType() != wl[i].LayerType() {
			t.Fatalf("%s: layer %d type %v, reference %v", name, i, gl[i].LayerType(), wl[i].LayerType())
		}
		if !bytes.Equal(gl[i].LayerContents(), wl[i].LayerContents()) {
			t.Fatalf("%s: layer %d (%v) contents differ", name, i, gl[i].LayerType())
		}
		if !bytes.Equal(gl[i].LayerPayload(), wl[i].LayerPayload()) {
			t.Fatalf("%s: layer %d (%v) payload differs", name, i, gl[i].LayerType())
		}
	}
	ge, we := got.ErrorLayer(), want.ErrorLayer()
	if (ge == nil) != (we == nil) {
		t.Fatalf("%s: error layer %v, reference %v", name, ge, we)
	}
	if ge != nil && ge.Error().Error() != we.Error().Error() {
		t.Fatalf("%s: error %q, reference %q", name, ge.Error(), we.Error())
	}
	if got.String() != want.String() {
		t.Fatalf("%s: String %q, reference %q", name, got, want)
	}
}

// TestDecoderMatchesReference: the reusable Decoder (and the eager
// Decode wrapper built on it) must produce byte-identical layers to the
// pre-optimization decode loop on every corpus frame — including the
// malformed and truncated ones.
func TestDecoderMatchesReference(t *testing.T) {
	d := NewDecoder()
	for _, seed := range fuzzSeeds(t) {
		want := decodeReference(seed.data, seed.first)
		samePacket(t, seed.name+"/eager", Decode(seed.data, seed.first), want)
		// The same Decoder instance reused across all seeds — stale
		// state from a previous frame must never leak through.
		samePacket(t, seed.name+"/reused", d.Decode(seed.data, seed.first), want)
	}
}

// TestDecoderLazyAccessors exercises the lazy DNS tail through every
// accessor path rather than a materializing Layers() walk.
func TestDecoderLazyAccessors(t *testing.T) {
	seeds := fuzzSeeds(t)
	for _, seed := range seeds {
		want := decodeReference(seed.data, seed.first)
		d := GetDecoder()
		p := d.Decode(seed.data, seed.first)
		// Accessor-only interrogation, as the flow table and IDS do.
		if (p.TCP() == nil) != (want.TCP() == nil) {
			t.Fatalf("%s: TCP presence mismatch", seed.name)
		}
		if (p.UDP() == nil) != (want.UDP() == nil) {
			t.Fatalf("%s: UDP presence mismatch", seed.name)
		}
		if (p.DNS() == nil) != (want.DNS() == nil) {
			t.Fatalf("%s: DNS presence mismatch", seed.name)
		}
		if !bytes.Equal(p.ApplicationPayload(), want.ApplicationPayload()) {
			t.Fatalf("%s: ApplicationPayload mismatch", seed.name)
		}
		if (p.ErrorLayer() == nil) != (want.ErrorLayer() == nil) {
			t.Fatalf("%s: ErrorLayer presence mismatch", seed.name)
		}
		PutDecoder(d)
	}
}

// TestDecoderLazyDNSIsLazy pins the optimization itself: decoding a DNS
// frame must not parse the DNS message until a DNS-tail accessor runs.
func TestDecoderLazyDNSIsLazy(t *testing.T) {
	b := NewSerializeBuffer()
	if err := SerializeLayers(b,
		&Ethernet{SrcMAC: testSrcMAC, DstMAC: testDstMAC, EtherType: EtherTypeIPv4},
		&IPv4{SrcIP: testSrcIP, DstIP: testDstIP, Protocol: IPProtocolUDP},
		&UDP{SrcPort: 4444, DstPort: 53},
		&DNS{ID: 1, Questions: []DNSQuestion{{Name: "x.example", Type: DNSTypeA, Class: DNSClassIN}}},
	); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder()
	p := d.Decode(b.Bytes(), LayerTypeEthernet)
	if p.lazyRest == nil {
		t.Fatal("DNS tail was parsed eagerly")
	}
	// Header accessors must not trigger the DNS parse.
	if p.UDP() == nil || p.IPv4() == nil {
		t.Fatal("header layers missing")
	}
	if p.lazyRest == nil {
		t.Fatal("UDP/IPv4 accessors materialized the DNS tail")
	}
	if p.DNS() == nil {
		t.Fatal("DNS accessor failed")
	}
	if p.lazyRest != nil {
		t.Fatal("DNS accessor did not consume the lazy tail")
	}
}

// TestDecodeRandomizedEquivalence hurls random mutations of valid
// frames (bit flips, truncations, extensions) at both decoders.
func TestDecodeRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(0xdec0de))
	base := fuzzSeeds(t)
	d := NewDecoder()
	for i := 0; i < 2000; i++ {
		seed := base[rng.Intn(len(base))]
		data := append([]byte(nil), seed.data...)
		switch rng.Intn(3) {
		case 0: // flip a byte
			if len(data) > 0 {
				data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
			}
		case 1: // truncate
			if len(data) > 0 {
				data = data[:rng.Intn(len(data))]
			}
		case 2: // extend with noise
			extra := make([]byte, 1+rng.Intn(16))
			rng.Read(extra)
			data = append(data, extra...)
		}
		want := decodeReference(data, seed.first)
		samePacket(t, fmt.Sprintf("rand-%d(%s)", i, seed.name), d.Decode(data, seed.first), want)
	}
}

// BenchmarkPacketDecodeReused is the pooled-decoder hot path the
// switch data plane runs per frame.
func BenchmarkPacketDecodeReused(b *testing.B) {
	tcp := &TCP{SrcPort: 31337, DstPort: 80, Flags: TCPSyn}
	tcp.SetNetworkForChecksum(testSrcIP, testDstIP)
	buf := NewSerializeBuffer()
	if err := SerializeLayers(buf,
		&Ethernet{SrcMAC: testSrcMAC, DstMAC: testDstMAC, EtherType: EtherTypeIPv4},
		&IPv4{SrcIP: testSrcIP, DstIP: testDstIP, Protocol: IPProtocolTCP},
		tcp,
		NewPayload([]byte("GET / HTTP/1.0\r\n\r\n")),
	); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	d := NewDecoder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := d.Decode(raw, LayerTypeEthernet)
		if p.TCP() == nil {
			b.Fatal("no tcp")
		}
	}
}

// decodeReference is the original allocate-per-layer implementation,
// kept verbatim as the oracle for the Decoder equivalence tests.
func decodeReference(data []byte, first LayerType) *Packet {
	p := &Packet{data: data}
	rest := data
	next := first
	for len(rest) > 0 && next != LayerTypeInvalid {
		layer := newLayer(next)
		if layer == nil {
			pl := &Payload{}
			_ = pl.DecodeFromBytes(rest)
			p.layers = append(p.layers, pl)
			return p
		}
		if err := layer.DecodeFromBytes(rest); err != nil {
			fail := &DecodeFailure{Err: fmt.Errorf("decoding %s: %w", next, err)}
			fail.contents = rest
			p.layers = append(p.layers, fail)
			return p
		}
		p.layers = append(p.layers, layer)
		rest = layer.LayerPayload()
		next = layer.NextLayerType()
	}
	return p
}
