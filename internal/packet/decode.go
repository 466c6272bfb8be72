package packet

import "fmt"

// Packet is the result of decoding raw bytes: an ordered list of layers
// from outermost to innermost. Packets from the package-level Decode
// are fully materialized and safe for concurrent reads; Packets from a
// Decoder alias that Decoder's storage (see the Decoder reuse
// contract).
type Packet struct {
	data   []byte
	layers []Layer
	// lazyRest holds undecoded trailing bytes when a Decoder deferred
	// the DNS sub-parse; materialize consumes it on first access.
	lazyRest []byte
	dec      *Decoder
}

// Decode parses data starting at the given first layer type. Decoding
// never fails outright: bytes that cannot be parsed become a trailing
// DecodeFailure layer, mirroring how a real dataplane must tolerate
// malformed traffic.
//
// Each call dedicates a fresh Decoder to the packet, so the result does
// not alias shared state: it may be retained indefinitely and read
// concurrently. Hot paths that drop the packet before the next frame
// use a pooled Decoder directly and skip the per-packet allocation.
func Decode(data []byte, first LayerType) *Packet {
	d := NewDecoder()
	p := d.Decode(data, first)
	p.materialize()
	return p
}

// newLayer allocates a fresh decoder for the given type, or nil for
// types without a decoder.
func newLayer(t LayerType) DecodingLayer {
	switch t {
	case LayerTypeEthernet:
		return &Ethernet{}
	case LayerTypeARP:
		return &ARP{}
	case LayerTypeIPv4:
		return &IPv4{}
	case LayerTypeTCP:
		return &TCP{}
	case LayerTypeUDP:
		return &UDP{}
	case LayerTypeDNS:
		return &DNS{}
	case LayerTypePayload:
		return &Payload{}
	default:
		return nil
	}
}

// Data returns the raw bytes the packet was decoded from.
func (p *Packet) Data() []byte { return p.data }

// Layer returns the first layer of the given type, or nil.
func (p *Packet) Layer(t LayerType) Layer {
	for _, l := range p.layers {
		if l.LayerType() == t {
			return l
		}
	}
	// The lazily deferred tail always starts at DNS, so it can only
	// ever contain DNS, a trailing Payload, or a DecodeFailure — for
	// any other type the scan above was already exhaustive.
	if p.lazyRest != nil &&
		(t == LayerTypeDNS || t == LayerTypePayload || t == LayerTypeDecodeFailure) {
		p.materialize()
		for _, l := range p.layers {
			if l.LayerType() == t {
				return l
			}
		}
	}
	return nil
}

// Ethernet returns the Ethernet layer, or nil.
func (p *Packet) Ethernet() *Ethernet {
	if l := p.Layer(LayerTypeEthernet); l != nil {
		return l.(*Ethernet)
	}
	return nil
}

// IPv4 returns the IPv4 layer, or nil.
func (p *Packet) IPv4() *IPv4 {
	if l := p.Layer(LayerTypeIPv4); l != nil {
		return l.(*IPv4)
	}
	return nil
}

// TCP returns the TCP layer, or nil.
func (p *Packet) TCP() *TCP {
	if l := p.Layer(LayerTypeTCP); l != nil {
		return l.(*TCP)
	}
	return nil
}

// UDP returns the UDP layer, or nil.
func (p *Packet) UDP() *UDP {
	if l := p.Layer(LayerTypeUDP); l != nil {
		return l.(*UDP)
	}
	return nil
}

// DNS returns the DNS layer, or nil.
func (p *Packet) DNS() *DNS {
	if l := p.Layer(LayerTypeDNS); l != nil {
		return l.(*DNS)
	}
	return nil
}

// ApplicationPayload returns the innermost opaque payload bytes, or nil
// if the packet carries none.
func (p *Packet) ApplicationPayload() []byte {
	if l := p.Layer(LayerTypePayload); l != nil {
		return l.(*Payload).Data
	}
	return nil
}

// String lists the layer summaries.
func (p *Packet) String() string {
	p.materialize()
	s := ""
	for i, l := range p.layers {
		if i > 0 {
			s += " / "
		}
		if str, ok := l.(fmt.Stringer); ok {
			s += str.String()
		} else {
			s += l.LayerType().String()
		}
	}
	return s
}
