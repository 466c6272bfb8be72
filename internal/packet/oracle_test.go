package packet

import "encoding/binary"

// Decoded-packet accessors and checksum checks that only tests use, as
// oracles over what the codec produced.

// DNSTypeA is the IPv4 address record type.
const DNSTypeA uint16 = 1

// Layers returns all decoded layers, outermost first.
func (p *Packet) Layers() []Layer {
	p.materialize()
	return p.layers
}

// ErrorLayer returns the DecodeFailure layer if decoding stopped early.
func (p *Packet) ErrorLayer() *DecodeFailure {
	if l := p.Layer(LayerTypeDecodeFailure); l != nil {
		return l.(*DecodeFailure)
	}
	return nil
}

// MACEndpoint wraps a MAC address.
func MACEndpoint(m MACAddress) Endpoint {
	e := Endpoint{Type: EndpointMAC}
	copy(e.raw[:], m[:])
	return e
}

// PortEndpoint wraps a transport port.
func PortEndpoint(p uint16) Endpoint {
	e := Endpoint{Type: EndpointPort}
	binary.BigEndian.PutUint16(e.raw[:2], p)
	return e
}

// NetworkFlow extracts the IPv4 src/dst flow of a decoded packet.
func (p *Packet) NetworkFlow() (Flow, bool) {
	ip := p.IPv4()
	if ip == nil {
		return Flow{}, false
	}
	return Flow{Src: IPv4Endpoint(ip.SrcIP), Dst: IPv4Endpoint(ip.DstIP)}, true
}

// PushBytes appends the given bytes verbatim.
func (b *SerializeBuffer) PushBytes(p []byte) error {
	s, err := b.Append(len(p))
	if err != nil {
		return err
	}
	copy(s, p)
	return nil
}

// VerifyChecksum recomputes the header checksum over the decoded
// contents and reports whether it matches.
func (ip *IPv4) VerifyChecksum() bool {
	if len(ip.contents) < ipv4MinHeaderLen {
		return false
	}
	return internetChecksum(ip.contents, 0) == 0
}

// VerifyChecksum recomputes the segment checksum over the decoded
// contents+payload using the given IPv4 addresses.
func (t *TCP) VerifyChecksum(src, dst IPv4Address) bool {
	segLen := len(t.contents) + len(t.payload)
	sum := pseudoHeaderSum(src, dst, uint8(IPProtocolTCP), uint16(segLen))
	full := make([]byte, 0, segLen)
	full = append(full, t.contents...)
	full = append(full, t.payload...)
	return internetChecksum(full, sum) == 0
}

// IPv4Endpoint wraps an IPv4 address.
func IPv4Endpoint(a IPv4Address) Endpoint {
	e := Endpoint{Type: EndpointIPv4}
	copy(e.raw[:4], a[:])
	return e
}
