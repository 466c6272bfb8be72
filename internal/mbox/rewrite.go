package mbox

import (
	"errors"

	"iotsec/internal/packet"
)

// errNotTCPData reports a frame without a rewritable TCP payload.
var errNotTCPData = errors.New("mbox: frame has no TCP payload")

// rewriteTCPPayload rebuilds an eth/ip/tcp frame around a new payload,
// preserving addresses, ports, sequence numbers and flags while
// recomputing lengths and checksums. Our message-oriented transport
// acknowledges whole messages, so payload length changes are safe.
func rewriteTCPPayload(p *packet.Packet, newPayload []byte) ([]byte, error) {
	tcp := p.TCP()
	if tcp == nil {
		return nil, errNotTCPData
	}
	return rewriteTCP(p, tcp.Flags, newPayload)
}

// rewriteTCP is rewriteTCPPayload with the segment's flags replaced
// as well.
func rewriteTCP(p *packet.Packet, flags packet.TCPFlags, newPayload []byte) ([]byte, error) {
	eth, ip, tcp := p.Ethernet(), p.IPv4(), p.TCP()
	if eth == nil || ip == nil || tcp == nil {
		return nil, errNotTCPData
	}
	out := &packet.TCP{
		SrcPort: tcp.SrcPort, DstPort: tcp.DstPort,
		Seq: tcp.Seq, Ack: tcp.Ack,
		Flags: flags, Window: tcp.Window,
	}
	out.SetNetworkForChecksum(ip.SrcIP, ip.DstIP)
	b := packet.NewSerializeBuffer()
	layers := []packet.SerializableLayer{
		&packet.Ethernet{SrcMAC: eth.SrcMAC, DstMAC: eth.DstMAC, EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{SrcIP: ip.SrcIP, DstIP: ip.DstIP, Protocol: packet.IPProtocolTCP, TTL: ip.TTL, ID: ip.ID},
		out,
	}
	if len(newPayload) > 0 {
		layers = append(layers, packet.NewPayload(newPayload))
	}
	if err := packet.SerializeLayers(b, layers...); err != nil {
		return nil, err
	}
	frame := make([]byte, b.Len())
	copy(frame, b.Bytes())
	return frame, nil
}

// forgeRST builds a reset segment toward the sender of the given
// packet, terminating its connection attempt.
func forgeRST(p *packet.Packet) ([]byte, error) {
	eth, ip, tcp := p.Ethernet(), p.IPv4(), p.TCP()
	if eth == nil || ip == nil || tcp == nil {
		return nil, errNotTCPData
	}
	rst := &packet.TCP{
		SrcPort: tcp.DstPort, DstPort: tcp.SrcPort,
		Seq: 0, Ack: tcp.Seq + 1,
		Flags: packet.TCPRst,
	}
	rst.SetNetworkForChecksum(ip.DstIP, ip.SrcIP)
	b := packet.NewSerializeBuffer()
	err := packet.SerializeLayers(b,
		&packet.Ethernet{SrcMAC: eth.DstMAC, DstMAC: eth.SrcMAC, EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{SrcIP: ip.DstIP, DstIP: ip.SrcIP, Protocol: packet.IPProtocolTCP},
		rst,
	)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, b.Len())
	copy(frame, b.Bytes())
	return frame, nil
}

// refuse kills the connection a refused request rode on, at both
// ends, and returns the request's verdict. The client gets a forged
// RST, so it sees an immediate refusal rather than a timeout. The
// device accepted the stream before the request could be judged and
// would keep it, and the goroutine serving it, forever: it gets the
// refused segment as a bare RST in place of the request.
func refuse(ctx *Context) Verdict {
	if rst, err := forgeRST(ctx.Packet); err == nil && ctx.Inject != nil {
		ctx.Inject(rst)
	}
	if rst, err := rewriteTCP(ctx.Packet, packet.TCPRst, nil); err == nil && ctx.Onward != nil {
		ctx.Onward(rst)
	}
	return Drop
}
