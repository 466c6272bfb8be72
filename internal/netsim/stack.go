package netsim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"iotsec/internal/packet"
)

// Errors returned by the host stack.
var (
	ErrPortInUse    = errors.New("netsim: port already in use")
	ErrStackStopped = errors.New("netsim: stack stopped")
	ErrTimeout      = errors.New("netsim: operation timed out")
	ErrReset        = errors.New("netsim: connection reset by peer")
	ErrClosed       = errors.New("netsim: stream closed")
)

// UDPHandler receives a datagram addressed to a bound UDP port. It
// runs inside the stack's HandleFrame, so Node.HandleFrame's contract
// holds: it must not block, and datagrams it sends are delivered after
// it returns.
type UDPHandler func(srcIP packet.IPv4Address, srcPort uint16, payload []byte)

// Stack is a miniature host network stack bound to one fabric port: it
// answers ARP, demultiplexes IPv4/UDP, and offers reliable,
// message-oriented streams (a deliberately simplified TCP: SYN
// handshake, per-message sequence numbers, ACKs, retransmission,
// FIN/RST teardown). IoT devices, µmboxes and attack tools all ride on
// it.
type Stack struct {
	name string
	mac  packet.MACAddress
	ip   packet.IPv4Address
	port *Port
	net  *Network

	arpMu      sync.Mutex
	arpTable   map[packet.IPv4Address]packet.MACAddress
	arpPending map[packet.IPv4Address][]pendingSend

	udpMu       sync.RWMutex
	udpHandlers map[uint16]UDPHandler

	streamMu  sync.Mutex
	listeners map[uint16]StreamHandler
	conns     map[connKey]*Stream
	nextPort  uint16

	// RetransmitInterval and MaxRetransmits tune stream reliability
	// (shrunk in tests exercising loss).
	RetransmitInterval time.Duration
	MaxRetransmits     int

	stopOnce sync.Once
	stopped  chan struct{}
}

// pendingSend is an IP payload awaiting ARP resolution.
type pendingSend struct {
	serialize func(dstMAC packet.MACAddress) ([]byte, error)
}

// connKey identifies a stream by its 4-tuple (local side first).
type connKey struct {
	localPort  uint16
	remoteIP   packet.IPv4Address
	remotePort uint16
}

// NewStack creates a host stack. Attach it to the fabric with
// AttachStack or by wiring the stack's port manually.
func NewStack(name string, mac packet.MACAddress, ip packet.IPv4Address) *Stack {
	return &Stack{
		name:               name,
		mac:                mac,
		ip:                 ip,
		arpTable:           make(map[packet.IPv4Address]packet.MACAddress),
		arpPending:         make(map[packet.IPv4Address][]pendingSend),
		udpHandlers:        make(map[uint16]UDPHandler),
		listeners:          make(map[uint16]StreamHandler),
		conns:              make(map[connKey]*Stream),
		nextPort:           32768,
		RetransmitInterval: 25 * time.Millisecond,
		MaxRetransmits:     8,
		stopped:            make(chan struct{}),
	}
}

// Attach binds the stack to the fabric via a new port on network n.
func (s *Stack) Attach(n *Network) *Port {
	p := n.NewPort(s, 1)
	s.port = p
	s.net = n
	return p
}

// Network reports the fabric this stack is attached to (nil before
// Attach); callers use it to reach Network.Quiesce.
func (s *Stack) Network() *Network { return s.net }

// NodeName implements Node.
func (s *Stack) NodeName() string { return s.name }

// MAC returns the stack's hardware address.
func (s *Stack) MAC() packet.MACAddress { return s.mac }

// IP returns the stack's IPv4 address.
func (s *Stack) IP() packet.IPv4Address { return s.ip }

// Stop halts the stack: all streams error out and no further frames
// are processed.
func (s *Stack) Stop() {
	s.stopOnce.Do(func() {
		close(s.stopped)
		s.streamMu.Lock()
		conns := make([]*Stream, 0, len(s.conns))
		for _, c := range s.conns {
			conns = append(conns, c)
		}
		s.streamMu.Unlock()
		for _, c := range conns {
			c.teardown(ErrStackStopped)
		}
	})
}

// HandleFrame implements Node.
func (s *Stack) HandleFrame(_ *Port, frame Frame) {
	select {
	case <-s.stopped:
		return
	default:
	}
	// One port per stack, but decode via the shared pool anyway: the
	// UDP/TCP handlers keep only payload byte slices (which point into
	// the frame), never layer structs.
	dec := packet.GetDecoder()
	defer packet.PutDecoder(dec)
	p := dec.Decode(frame, packet.LayerTypeEthernet)
	eth := p.Ethernet()
	if eth == nil {
		return
	}
	if eth.DstMAC != s.mac && !eth.DstMAC.IsBroadcast() {
		return // not for us (switches may flood)
	}
	if arp, ok := p.Layer(packet.LayerTypeARP).(*packet.ARP); ok {
		s.handleARP(arp)
		return
	}
	ip := p.IPv4()
	if ip == nil || ip.DstIP != s.ip {
		return
	}
	switch {
	case p.UDP() != nil:
		s.handleUDP(ip, p.UDP())
	case p.TCP() != nil:
		s.handleTCP(ip, p.TCP())
	}
}

// --- ARP ---

func (s *Stack) handleARP(arp *packet.ARP) {
	switch arp.Operation {
	case packet.ARPRequest:
		if arp.TargetIP != s.ip {
			return
		}
		// Learn the asker, then reply.
		s.learnARP(arp.SenderIP, arp.SenderMAC)
		reply := &packet.ARP{
			Operation: packet.ARPReply,
			SenderMAC: s.mac, SenderIP: s.ip,
			TargetMAC: arp.SenderMAC, TargetIP: arp.SenderIP,
		}
		s.sendFrame(arp.SenderMAC, packet.EtherTypeARP, reply)
	case packet.ARPReply:
		s.learnARP(arp.SenderIP, arp.SenderMAC)
	}
}

// learnARP records a mapping and flushes queued sends.
func (s *Stack) learnARP(ip packet.IPv4Address, mac packet.MACAddress) {
	s.arpMu.Lock()
	s.arpTable[ip] = mac
	pending := s.arpPending[ip]
	delete(s.arpPending, ip)
	s.arpMu.Unlock()
	for _, ps := range pending {
		if frame, err := ps.serialize(mac); err == nil {
			s.transmit(frame)
		}
	}
}

// resolveAndSend serializes and transmits once the destination MAC is
// known, triggering ARP if needed.
func (s *Stack) resolveAndSend(dstIP packet.IPv4Address, serialize func(dstMAC packet.MACAddress) ([]byte, error)) error {
	s.arpMu.Lock()
	mac, known := s.arpTable[dstIP]
	if !known {
		// Queue (bounded) and (re-)broadcast a request on every
		// attempt: callers retransmit, so a lost ARP exchange heals
		// itself instead of stranding the queue.
		if len(s.arpPending[dstIP]) < 256 {
			s.arpPending[dstIP] = append(s.arpPending[dstIP], pendingSend{serialize})
		}
		s.arpMu.Unlock()
		req := &packet.ARP{
			Operation: packet.ARPRequest,
			SenderMAC: s.mac, SenderIP: s.ip,
			TargetIP: dstIP,
		}
		s.sendFrame(packet.BroadcastMAC, packet.EtherTypeARP, req)
		return nil
	}
	s.arpMu.Unlock()
	frame, err := serialize(mac)
	if err != nil {
		return err
	}
	s.transmit(frame)
	return nil
}

// sendFrame serializes a single L2 payload layer and transmits it.
func (s *Stack) sendFrame(dstMAC packet.MACAddress, et packet.EtherType, body packet.SerializableLayer) {
	b := packet.NewSerializeBuffer()
	err := packet.SerializeLayers(b,
		&packet.Ethernet{SrcMAC: s.mac, DstMAC: dstMAC, EtherType: et},
		body,
	)
	if err != nil {
		return
	}
	s.transmit(b.Bytes())
}

// transmit puts raw bytes on the wire.
func (s *Stack) transmit(frame []byte) {
	if s.port != nil {
		s.port.Send(frame)
	}
}

// InjectFrame transmits arbitrary raw bytes — the capability a
// compromised host uses to spoof source addresses. The frame is
// copied.
func (s *Stack) InjectFrame(frame []byte) {
	cp := make([]byte, len(frame))
	copy(cp, frame)
	s.transmit(cp)
}

// LookupARP reads the ARP cache.
func (s *Stack) LookupARP(ip packet.IPv4Address) (packet.MACAddress, bool) {
	s.arpMu.Lock()
	defer s.arpMu.Unlock()
	mac, ok := s.arpTable[ip]
	return mac, ok
}

// --- UDP ---

// HandleUDP binds a handler to a UDP port.
func (s *Stack) HandleUDP(port uint16, h UDPHandler) error {
	s.udpMu.Lock()
	defer s.udpMu.Unlock()
	if _, dup := s.udpHandlers[port]; dup {
		return fmt.Errorf("%w: udp/%d on %s", ErrPortInUse, port, s.name)
	}
	s.udpHandlers[port] = h
	return nil
}

// SendUDP transmits a datagram. srcPort 0 picks an ephemeral port.
func (s *Stack) SendUDP(dstIP packet.IPv4Address, dstPort, srcPort uint16, payload []byte) error {
	if srcPort == 0 {
		srcPort = s.allocPort()
	}
	return s.resolveAndSend(dstIP, func(dstMAC packet.MACAddress) ([]byte, error) {
		udp := &packet.UDP{SrcPort: srcPort, DstPort: dstPort}
		udp.SetNetworkForChecksum(s.ip, dstIP)
		b := packet.NewSerializeBuffer()
		err := packet.SerializeLayers(b,
			&packet.Ethernet{SrcMAC: s.mac, DstMAC: dstMAC, EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{SrcIP: s.ip, DstIP: dstIP, Protocol: packet.IPProtocolUDP},
			udp,
			packet.NewPayload(payload),
		)
		if err != nil {
			return nil, err
		}
		// Copy out: the serialize buffer is reused per call.
		out := make([]byte, b.Len())
		copy(out, b.Bytes())
		return out, nil
	})
}

func (s *Stack) handleUDP(ip *packet.IPv4, udp *packet.UDP) {
	s.udpMu.RLock()
	h := s.udpHandlers[udp.DstPort]
	s.udpMu.RUnlock()
	if h != nil {
		h(ip.SrcIP, udp.SrcPort, udp.LayerPayload())
	}
}

// allocPort returns a fresh ephemeral port.
func (s *Stack) allocPort() uint16 {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	for {
		p := s.nextPort
		s.nextPort++
		if s.nextPort < 32768 {
			s.nextPort = 32768
		}
		if _, used := s.listeners[p]; !used {
			return p
		}
	}
}
