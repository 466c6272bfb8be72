package packet

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// DNS record types and classes the library understands.
const (
	DNSTypeTXT   uint16 = 16
	DNSTypeANY   uint16 = 255
	DNSClassIN   uint16 = 1
	dnsHeaderLen        = 12
)

// DNSQuestion is a single query entry.
type DNSQuestion struct {
	Name  string
	Type  uint16
	Class uint16
}

// DNSResourceRecord is a single answer/authority/additional entry.
type DNSResourceRecord struct {
	Name  string
	Type  uint16
	Class uint16
	TTL   uint32
	Data  []byte
}

// DNS is a DNS message (queries and responses). Name compression is
// decoded but never emitted.
type DNS struct {
	base
	ID         uint16
	Response   bool
	RecDesired bool
	RCode      uint8
	Questions  []DNSQuestion
	Answers    []DNSResourceRecord
}

// LayerType implements Layer.
func (d *DNS) LayerType() LayerType { return LayerTypeDNS }

// NextLayerType implements DecodingLayer.
func (d *DNS) NextLayerType() LayerType { return LayerTypePayload }

// DecodeFromBytes implements DecodingLayer.
func (d *DNS) DecodeFromBytes(data []byte) error {
	if len(data) < dnsHeaderLen {
		return fmt.Errorf("dns header: %w (%d bytes)", ErrTruncated, len(data))
	}
	d.ID = binary.BigEndian.Uint16(data[0:2])
	flags := binary.BigEndian.Uint16(data[2:4])
	d.Response = flags&0x8000 != 0
	d.RecDesired = flags&0x0100 != 0
	d.RCode = uint8(flags & 0x000f)
	qd := int(binary.BigEndian.Uint16(data[4:6]))
	an := int(binary.BigEndian.Uint16(data[6:8]))
	d.Questions = d.Questions[:0]
	d.Answers = d.Answers[:0]
	off := dnsHeaderLen
	for i := 0; i < qd; i++ {
		name, n, err := decodeDNSName(data, off)
		if err != nil {
			return err
		}
		off += n
		if off+4 > len(data) {
			return fmt.Errorf("dns question: %w", ErrTruncated)
		}
		d.Questions = append(d.Questions, DNSQuestion{
			Name:  name,
			Type:  binary.BigEndian.Uint16(data[off : off+2]),
			Class: binary.BigEndian.Uint16(data[off+2 : off+4]),
		})
		off += 4
	}
	for i := 0; i < an; i++ {
		name, n, err := decodeDNSName(data, off)
		if err != nil {
			return err
		}
		off += n
		if off+10 > len(data) {
			return fmt.Errorf("dns answer: %w", ErrTruncated)
		}
		rr := DNSResourceRecord{
			Name:  name,
			Type:  binary.BigEndian.Uint16(data[off : off+2]),
			Class: binary.BigEndian.Uint16(data[off+2 : off+4]),
			TTL:   binary.BigEndian.Uint32(data[off+4 : off+8]),
		}
		rdLen := int(binary.BigEndian.Uint16(data[off+8 : off+10]))
		off += 10
		if off+rdLen > len(data) {
			return fmt.Errorf("dns rdata: %w", ErrTruncated)
		}
		rr.Data = data[off : off+rdLen]
		off += rdLen
		d.Answers = append(d.Answers, rr)
	}
	d.contents = data[:off]
	d.payload = data[off:]
	return nil
}

// decodeDNSName reads a (possibly compressed) domain name starting at
// off, returning the dotted name and the number of bytes the name
// occupies at off (pointers count as 2 bytes).
func decodeDNSName(data []byte, off int) (string, int, error) {
	var labels []string
	consumed := 0
	jumped := false
	pos := off
	for hops := 0; ; hops++ {
		if hops > 63 {
			return "", 0, fmt.Errorf("dns name: too many compression hops")
		}
		if pos >= len(data) {
			return "", 0, fmt.Errorf("dns name: %w", ErrTruncated)
		}
		l := int(data[pos])
		switch {
		case l == 0:
			if !jumped {
				consumed = pos - off + 1
			}
			return strings.Join(labels, "."), consumed, nil
		case l&0xc0 == 0xc0:
			if pos+1 >= len(data) {
				return "", 0, fmt.Errorf("dns name pointer: %w", ErrTruncated)
			}
			if !jumped {
				consumed = pos - off + 2
				jumped = true
			}
			pos = int(binary.BigEndian.Uint16(data[pos:pos+2]) & 0x3fff)
		default:
			if pos+1+l > len(data) {
				return "", 0, fmt.Errorf("dns label: %w", ErrTruncated)
			}
			labels = append(labels, string(data[pos+1:pos+1+l]))
			pos += 1 + l
		}
	}
}

// encodeDNSName appends the uncompressed wire form of a dotted name.
func encodeDNSName(dst []byte, name string) ([]byte, error) {
	if name != "" {
		for _, label := range strings.Split(name, ".") {
			if len(label) == 0 || len(label) > 63 {
				return nil, fmt.Errorf("dns name: bad label %q in %q", label, name)
			}
			dst = append(dst, byte(len(label)))
			dst = append(dst, label...)
		}
	}
	return append(dst, 0), nil
}

// SerializeTo implements SerializableLayer.
func (d *DNS) SerializeTo(b *SerializeBuffer) error {
	var body []byte
	var err error
	for _, q := range d.Questions {
		if body, err = encodeDNSName(body, q.Name); err != nil {
			return err
		}
		body = binary.BigEndian.AppendUint16(body, q.Type)
		body = binary.BigEndian.AppendUint16(body, q.Class)
	}
	for _, rr := range d.Answers {
		if body, err = encodeDNSName(body, rr.Name); err != nil {
			return err
		}
		body = binary.BigEndian.AppendUint16(body, rr.Type)
		body = binary.BigEndian.AppendUint16(body, rr.Class)
		body = binary.BigEndian.AppendUint32(body, rr.TTL)
		body = binary.BigEndian.AppendUint16(body, uint16(len(rr.Data)))
		body = append(body, rr.Data...)
	}
	hdr, err := b.Prepend(dnsHeaderLen + len(body))
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint16(hdr[0:2], d.ID)
	var flags uint16
	if d.Response {
		flags |= 0x8000
	}
	if d.RecDesired {
		flags |= 0x0100
	}
	flags |= uint16(d.RCode) & 0x000f
	binary.BigEndian.PutUint16(hdr[2:4], flags)
	binary.BigEndian.PutUint16(hdr[4:6], uint16(len(d.Questions)))
	binary.BigEndian.PutUint16(hdr[6:8], uint16(len(d.Answers)))
	copy(hdr[dnsHeaderLen:], body)
	return nil
}

// String summarizes the message.
func (d *DNS) String() string {
	kind := "query"
	if d.Response {
		kind = "response"
	}
	return fmt.Sprintf("DNS %s id=%d questions=%d answers=%d", kind, d.ID, len(d.Questions), len(d.Answers))
}
