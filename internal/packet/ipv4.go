package packet

import (
	"encoding/binary"
	"fmt"
)

// IPv4Address is a 32-bit IPv4 address.
type IPv4Address [4]byte

// ParseIPv4 parses dotted-quad notation; ok is false on malformed input.
func ParseIPv4(s string) (addr IPv4Address, ok bool) {
	var octet, idx, digits int
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			octet = octet*10 + int(c-'0')
			digits++
			if octet > 255 || digits > 3 {
				return IPv4Address{}, false
			}
		case c == '.':
			if digits == 0 || idx == 3 {
				return IPv4Address{}, false
			}
			addr[idx] = byte(octet)
			idx++
			octet, digits = 0, 0
		default:
			return IPv4Address{}, false
		}
	}
	if idx != 3 || digits == 0 {
		return IPv4Address{}, false
	}
	addr[3] = byte(octet)
	return addr, true
}

// MustParseIPv4 is ParseIPv4 that panics on malformed input; for
// constants in tests and examples.
func MustParseIPv4(s string) IPv4Address {
	a, ok := ParseIPv4(s)
	if !ok {
		panic("packet: bad IPv4 literal " + s)
	}
	return a
}

// String renders dotted-quad notation.
func (a IPv4Address) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IsZero reports whether the address is 0.0.0.0.
func (a IPv4Address) IsZero() bool { return a == IPv4Address{} }

// IPProtocol identifies the transport protocol in an IPv4 header.
type IPProtocol uint8

// IP protocol numbers the library understands.
const (
	IPProtocolICMP IPProtocol = 1
	IPProtocolTCP  IPProtocol = 6
	IPProtocolUDP  IPProtocol = 17
)

// String names well-known protocols.
func (p IPProtocol) String() string {
	switch p {
	case IPProtocolICMP:
		return "ICMP"
	case IPProtocolTCP:
		return "TCP"
	case IPProtocolUDP:
		return "UDP"
	default:
		return fmt.Sprintf("IPProtocol(%d)", uint8(p))
	}
}

const ipv4MinHeaderLen = 20

// IPv4 is an IPv4 header (options unsupported on serialize, skipped on
// decode).
type IPv4 struct {
	base
	TTL      uint8
	Protocol IPProtocol
	SrcIP    IPv4Address
	DstIP    IPv4Address
	// Length is the total length field (header+payload); filled on
	// decode and computed on serialize.
	Length uint16
	// Checksum is verified on decode and computed on serialize.
	Checksum uint16
	// ID is the identification field (diagnostics only).
	ID uint16
}

// LayerType implements Layer.
func (ip *IPv4) LayerType() LayerType { return LayerTypeIPv4 }

// DecodeFromBytes implements DecodingLayer.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < ipv4MinHeaderLen {
		return fmt.Errorf("ipv4 header: %w (%d bytes)", ErrTruncated, len(data))
	}
	if v := data[0] >> 4; v != 4 {
		return fmt.Errorf("ipv4 header: bad version %d", v)
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < ipv4MinHeaderLen || len(data) < ihl {
		return fmt.Errorf("ipv4 header: bad IHL %d for %d bytes", ihl, len(data))
	}
	ip.Length = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ip.TTL = data[8]
	ip.Protocol = IPProtocol(data[9])
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	copy(ip.SrcIP[:], data[12:16])
	copy(ip.DstIP[:], data[16:20])
	end := int(ip.Length)
	if end < ihl || end > len(data) {
		end = len(data)
	}
	ip.contents = data[:ihl]
	ip.payload = data[ihl:end]
	return nil
}

// NextLayerType implements DecodingLayer.
func (ip *IPv4) NextLayerType() LayerType {
	switch ip.Protocol {
	case IPProtocolTCP:
		return LayerTypeTCP
	case IPProtocolUDP:
		return LayerTypeUDP
	default:
		return LayerTypePayload
	}
}

// SerializeTo implements SerializableLayer. It writes a 20-byte header
// with computed total length and checksum; TTL defaults to 64 when
// unset.
func (ip *IPv4) SerializeTo(b *SerializeBuffer) error {
	payloadLen := b.Len()
	hdr, err := b.Prepend(ipv4MinHeaderLen)
	if err != nil {
		return err
	}
	ttl := ip.TTL
	if ttl == 0 {
		ttl = 64
	}
	hdr[0] = 0x45 // version 4, IHL 5
	total := uint16(ipv4MinHeaderLen + payloadLen)
	binary.BigEndian.PutUint16(hdr[2:4], total)
	binary.BigEndian.PutUint16(hdr[4:6], ip.ID)
	hdr[8] = ttl
	hdr[9] = uint8(ip.Protocol)
	copy(hdr[12:16], ip.SrcIP[:])
	copy(hdr[16:20], ip.DstIP[:])
	cs := internetChecksum(hdr, 0)
	binary.BigEndian.PutUint16(hdr[10:12], cs)
	ip.Length = total
	ip.Checksum = cs
	return nil
}

// String summarizes the header.
func (ip *IPv4) String() string {
	return fmt.Sprintf("IPv4 %s > %s %s ttl=%d len=%d", ip.SrcIP, ip.DstIP, ip.Protocol, ip.TTL, ip.Length)
}
