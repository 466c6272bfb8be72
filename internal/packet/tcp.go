package packet

import (
	"encoding/binary"
	"fmt"
	"strings"
)

const tcpMinHeaderLen = 20

// TCPFlags is the bitfield of TCP control flags.
type TCPFlags uint8

// TCP control flags.
const (
	TCPFin TCPFlags = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// Has reports whether all the given flags are set.
func (f TCPFlags) Has(flags TCPFlags) bool { return f&flags == flags }

// String renders the set flags, e.g. "SYN|ACK".
func (f TCPFlags) String() string {
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{TCPSyn, "SYN"}, {TCPAck, "ACK"}, {TCPFin, "FIN"},
		{TCPRst, "RST"}, {TCPPsh, "PSH"}, {TCPUrg, "URG"},
	}
	var parts []string
	for _, n := range names {
		if f.Has(n.bit) {
			parts = append(parts, n.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// TCP is a TCP segment header. Serialization fills in the checksum when
// SetNetworkForChecksum was called with the enclosing IPv4 addresses.
type TCP struct {
	base
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            TCPFlags
	Window           uint16
	Checksum         uint16

	srcIP, dstIP IPv4Address
	hasNetwork   bool
}

// LayerType implements Layer.
func (t *TCP) LayerType() LayerType { return LayerTypeTCP }

// SetNetworkForChecksum supplies the enclosing IPv4 addresses so
// SerializeTo can compute the pseudo-header checksum.
func (t *TCP) SetNetworkForChecksum(src, dst IPv4Address) {
	t.srcIP, t.dstIP = src, dst
	t.hasNetwork = true
}

// DecodeFromBytes implements DecodingLayer.
func (t *TCP) DecodeFromBytes(data []byte) error {
	if len(data) < tcpMinHeaderLen {
		return fmt.Errorf("tcp header: %w (%d bytes)", ErrTruncated, len(data))
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	dataOff := int(data[12]>>4) * 4
	if dataOff < tcpMinHeaderLen || len(data) < dataOff {
		return fmt.Errorf("tcp header: bad data offset %d for %d bytes", dataOff, len(data))
	}
	t.Flags = TCPFlags(data[13] & 0x3f)
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	t.contents = data[:dataOff]
	t.payload = data[dataOff:]
	return nil
}

// NextLayerType implements DecodingLayer.
func (t *TCP) NextLayerType() LayerType { return LayerTypePayload }

// SerializeTo implements SerializableLayer.
func (t *TCP) SerializeTo(b *SerializeBuffer) error {
	payloadLen := b.Len()
	hdr, err := b.Prepend(tcpMinHeaderLen)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint16(hdr[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:4], t.DstPort)
	binary.BigEndian.PutUint32(hdr[4:8], t.Seq)
	binary.BigEndian.PutUint32(hdr[8:12], t.Ack)
	hdr[12] = 5 << 4 // 20-byte header, no options
	hdr[13] = uint8(t.Flags)
	win := t.Window
	if win == 0 {
		win = 65535
	}
	binary.BigEndian.PutUint16(hdr[14:16], win)
	if t.hasNetwork {
		segLen := uint16(tcpMinHeaderLen + payloadLen)
		sum := pseudoHeaderSum(t.srcIP, t.dstIP, uint8(IPProtocolTCP), segLen)
		cs := internetChecksum(b.Bytes()[:segLen], sum)
		binary.BigEndian.PutUint16(hdr[16:18], cs)
		t.Checksum = cs
	}
	return nil
}

// String summarizes the segment header.
func (t *TCP) String() string {
	return fmt.Sprintf("TCP %d > %d [%s] seq=%d ack=%d", t.SrcPort, t.DstPort, t.Flags, t.Seq, t.Ack)
}
