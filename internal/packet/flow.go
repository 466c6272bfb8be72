package packet

import (
	"encoding/binary"
	"fmt"
)

// EndpointType distinguishes the address family of an Endpoint.
type EndpointType uint8

// Endpoint address families.
const (
	_ EndpointType = iota // the zero value: no address
	EndpointMAC
	EndpointIPv4
	EndpointPort
	EndpointIPv4Port
)

// Endpoint is a hashable source or destination address at some layer.
// Fixed-size so it is usable as a map key.
type Endpoint struct {
	Type EndpointType
	raw  [6]byte
}

// IPv4PortEndpoint wraps an (address, port) socket pair.
func IPv4PortEndpoint(a IPv4Address, p uint16) Endpoint {
	e := Endpoint{Type: EndpointIPv4Port}
	copy(e.raw[:4], a[:])
	binary.BigEndian.PutUint16(e.raw[4:6], p)
	return e
}

// IPv4Addr extracts the IPv4 address for IPv4/IPv4Port endpoints.
func (e Endpoint) IPv4Addr() (IPv4Address, bool) {
	switch e.Type {
	case EndpointIPv4, EndpointIPv4Port:
		var a IPv4Address
		copy(a[:], e.raw[:4])
		return a, true
	default:
		return IPv4Address{}, false
	}
}

// Port extracts the port for Port/IPv4Port endpoints.
func (e Endpoint) Port() (uint16, bool) {
	switch e.Type {
	case EndpointPort:
		return binary.BigEndian.Uint16(e.raw[:2]), true
	case EndpointIPv4Port:
		return binary.BigEndian.Uint16(e.raw[4:6]), true
	default:
		return 0, false
	}
}

// String renders the endpoint address.
func (e Endpoint) String() string {
	switch e.Type {
	case EndpointMAC:
		var m MACAddress
		copy(m[:], e.raw[:])
		return m.String()
	case EndpointIPv4:
		a, _ := e.IPv4Addr()
		return a.String()
	case EndpointPort:
		p, _ := e.Port()
		return fmt.Sprintf("port %d", p)
	case EndpointIPv4Port:
		a, _ := e.IPv4Addr()
		p, _ := e.Port()
		return fmt.Sprintf("%s:%d", a, p)
	default:
		return "invalid"
	}
}

// Flow is a (src, dst) endpoint pair; hashable and comparable, so
// usable as a map key for per-flow state.
type Flow struct {
	Src, Dst Endpoint
}

// Reverse returns the flow in the opposite direction.
func (f Flow) Reverse() Flow { return Flow{Src: f.Dst, Dst: f.Src} }

// Canonical returns a direction-independent form of the flow: the same
// value for A→B and B→A, so bidirectional state can share one key.
func (f Flow) Canonical() Flow {
	if endpointLess(f.Dst, f.Src) {
		return f.Reverse()
	}
	return f
}

// endpointLess orders endpoints by (type, raw bytes).
func endpointLess(a, b Endpoint) bool {
	if a.Type != b.Type {
		return a.Type < b.Type
	}
	for i := range a.raw {
		if a.raw[i] != b.raw[i] {
			return a.raw[i] < b.raw[i]
		}
	}
	return false
}

// String renders "src > dst".
func (f Flow) String() string { return f.Src.String() + " > " + f.Dst.String() }

// TransportFlow extracts the (IP, port) socket-pair flow of a decoded
// packet, covering both TCP and UDP.
func (p *Packet) TransportFlow() (Flow, bool) {
	ip := p.IPv4()
	if ip == nil {
		return Flow{}, false
	}
	if t := p.TCP(); t != nil {
		return Flow{
			Src: IPv4PortEndpoint(ip.SrcIP, t.SrcPort),
			Dst: IPv4PortEndpoint(ip.DstIP, t.DstPort),
		}, true
	}
	if u := p.UDP(); u != nil {
		return Flow{
			Src: IPv4PortEndpoint(ip.SrcIP, u.SrcPort),
			Dst: IPv4PortEndpoint(ip.DstIP, u.DstPort),
		}, true
	}
	return Flow{}, false
}
