// Package openflow implements an OpenFlow-1.0-inspired southbound
// interface: a match→action flow-rule model, priority-ordered flow
// tables with idle/hard timeouts, and a compact binary wire protocol a
// controller uses to program remote switches (FLOW_MOD), receive
// unmatched traffic (PACKET_IN) and inject packets (PACKET_OUT).
//
// The paper's IoTSec controller (§5.1) programs per-device tunnels and
// µmbox steering through exactly this interface.
package openflow

import (
	"fmt"
	"strings"

	"iotsec/internal/packet"
)

// Wildcard bits: a set bit means the corresponding field is ignored.
const (
	WInPort uint32 = 1 << iota
	WEthSrc
	WEthDst
	WEtherType
	WSrcIP
	WDstIP
	WProto
	WTpSrc
	WTpDst

	// WAll wildcards every field (match everything).
	WAll = WInPort | WEthSrc | WEthDst | WEtherType | WSrcIP | WDstIP | WProto | WTpSrc | WTpDst
)

// Match is a packet classifier over L1–L4 header fields. Fields whose
// wildcard bit is set are ignored. IPv4 prefixes match on SrcMask /
// DstMask leading bits (32 = exact).
type Match struct {
	Wildcards uint32
	InPort    uint16
	EthSrc    packet.MACAddress
	EthDst    packet.MACAddress
	EtherType packet.EtherType
	SrcIP     packet.IPv4Address
	DstIP     packet.IPv4Address
	SrcMask   uint8
	DstMask   uint8
	Proto     packet.IPProtocol
	TpSrc     uint16
	TpDst     uint16
}

// MatchAll matches every packet.
func MatchAll() Match { return Match{Wildcards: WAll, SrcMask: 32, DstMask: 32} }

// WithEthSrc narrows the match to one source MAC.
func (m Match) WithEthSrc(mac packet.MACAddress) Match {
	m.Wildcards &^= WEthSrc
	m.EthSrc = mac
	return m
}

// WithEthDst narrows the match to one destination MAC.
func (m Match) WithEthDst(mac packet.MACAddress) Match {
	m.Wildcards &^= WEthDst
	m.EthDst = mac
	return m
}

// WithSrcIP narrows the match to an IPv4 source prefix.
func (m Match) WithSrcIP(ip packet.IPv4Address, prefixLen uint8) Match {
	m.Wildcards &^= WSrcIP | WEtherType
	m.EtherType = packet.EtherTypeIPv4
	m.SrcIP, m.SrcMask = ip, prefixLen
	return m
}

// WithDstIP narrows the match to an IPv4 destination prefix.
func (m Match) WithDstIP(ip packet.IPv4Address, prefixLen uint8) Match {
	m.Wildcards &^= WDstIP | WEtherType
	m.EtherType = packet.EtherTypeIPv4
	m.DstIP, m.DstMask = ip, prefixLen
	return m
}

// WithProto narrows the match to one IP protocol.
func (m Match) WithProto(p packet.IPProtocol) Match {
	m.Wildcards &^= WProto | WEtherType
	m.EtherType = packet.EtherTypeIPv4
	m.Proto = p
	return m
}

// WithTpSrc narrows the match to one transport source port.
func (m Match) WithTpSrc(p uint16) Match {
	m.Wildcards &^= WTpSrc
	m.TpSrc = p
	return m
}

// WithTpDst narrows the match to one transport destination port.
func (m Match) WithTpDst(p uint16) Match {
	m.Wildcards &^= WTpDst
	m.TpDst = p
	return m
}

// prefixMatches reports whether addr falls within want/maskLen.
func prefixMatches(want, addr packet.IPv4Address, maskLen uint8) bool {
	if maskLen >= 32 {
		return want == addr
	}
	if maskLen == 0 {
		return true
	}
	w := uint32(want[0])<<24 | uint32(want[1])<<16 | uint32(want[2])<<8 | uint32(want[3])
	a := uint32(addr[0])<<24 | uint32(addr[1])<<16 | uint32(addr[2])<<8 | uint32(addr[3])
	mask := ^uint32(0) << (32 - maskLen)
	return w&mask == a&mask
}

// Matches reports whether the decoded packet arriving on inPort
// satisfies this match.
func (m Match) Matches(p *packet.Packet, inPort uint16) bool {
	if m.Wildcards&WInPort == 0 && m.InPort != inPort {
		return false
	}
	eth := p.Ethernet()
	if m.Wildcards&WEthSrc == 0 && (eth == nil || eth.SrcMAC != m.EthSrc) {
		return false
	}
	if m.Wildcards&WEthDst == 0 && (eth == nil || eth.DstMAC != m.EthDst) {
		return false
	}
	if m.Wildcards&WEtherType == 0 && (eth == nil || eth.EtherType != m.EtherType) {
		return false
	}
	ip := p.IPv4()
	if m.Wildcards&WSrcIP == 0 && (ip == nil || !prefixMatches(m.SrcIP, ip.SrcIP, m.SrcMask)) {
		return false
	}
	if m.Wildcards&WDstIP == 0 && (ip == nil || !prefixMatches(m.DstIP, ip.DstIP, m.DstMask)) {
		return false
	}
	if m.Wildcards&WProto == 0 && (ip == nil || ip.Protocol != m.Proto) {
		return false
	}
	if m.Wildcards&(WTpSrc|WTpDst) != WTpSrc|WTpDst {
		var src, dst uint16
		var ok bool
		if t := p.TCP(); t != nil {
			src, dst, ok = t.SrcPort, t.DstPort, true
		} else if u := p.UDP(); u != nil {
			src, dst, ok = u.SrcPort, u.DstPort, true
		}
		if m.Wildcards&WTpSrc == 0 && (!ok || src != m.TpSrc) {
			return false
		}
		if m.Wildcards&WTpDst == 0 && (!ok || dst != m.TpDst) {
			return false
		}
	}
	return true
}

// String renders the concrete (non-wildcarded) fields.
func (m Match) String() string {
	if m.Wildcards == WAll {
		return "any"
	}
	var parts []string
	if m.Wildcards&WInPort == 0 {
		parts = append(parts, fmt.Sprintf("in_port=%d", m.InPort))
	}
	if m.Wildcards&WEthSrc == 0 {
		parts = append(parts, "eth_src="+m.EthSrc.String())
	}
	if m.Wildcards&WEthDst == 0 {
		parts = append(parts, "eth_dst="+m.EthDst.String())
	}
	if m.Wildcards&WEtherType == 0 {
		parts = append(parts, "eth_type="+m.EtherType.String())
	}
	if m.Wildcards&WSrcIP == 0 {
		parts = append(parts, fmt.Sprintf("src=%s/%d", m.SrcIP, m.SrcMask))
	}
	if m.Wildcards&WDstIP == 0 {
		parts = append(parts, fmt.Sprintf("dst=%s/%d", m.DstIP, m.DstMask))
	}
	if m.Wildcards&WProto == 0 {
		parts = append(parts, "proto="+m.Proto.String())
	}
	if m.Wildcards&WTpSrc == 0 {
		parts = append(parts, fmt.Sprintf("tp_src=%d", m.TpSrc))
	}
	if m.Wildcards&WTpDst == 0 {
		parts = append(parts, fmt.Sprintf("tp_dst=%d", m.TpDst))
	}
	return strings.Join(parts, ",")
}
