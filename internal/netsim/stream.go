package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"iotsec/internal/packet"
)

// StreamHandler accepts an inbound stream on a listening port. It runs
// on its own goroutine.
type StreamHandler func(st *Stream)

// streamState tracks the connection lifecycle.
type streamState int32

const (
	stateSynSent streamState = iota
	stateSynReceived
	stateEstablished
	stateClosed
)

// isn seeds initial sequence numbers; a process-wide counter keeps
// them unique and deterministic.
var isn atomic.Uint32

// Stream is a reliable, ordered, message-oriented connection between
// two stacks (a simplified TCP: each Send is one segment, acknowledged
// and retransmitted as a unit).
type Stream struct {
	stack *Stack
	key   connKey

	state atomic.Int32

	mu        sync.Mutex
	sendSeq   uint32 // next sequence number to use for outgoing data
	recvNext  uint32 // next expected incoming sequence number
	ackWaiter map[uint32]chan struct{}
	oooBuf    map[uint32][]byte // out-of-order segments

	handlerMu    sync.Mutex
	onMessage    func([]byte)
	handlerReady chan struct{}
	readyOnce    sync.Once

	// dispatch preserves per-stream message order while keeping
	// handlers, which block in Send, out of the stack's HandleFrame.
	dispatch chan []byte

	established chan struct{}
	closeOnce   sync.Once
	closeErr    error
	done        chan struct{}
}

func newStream(st *Stack, key connKey, state streamState, sendSeq, recvNext uint32) *Stream {
	s := &Stream{
		stack:        st,
		key:          key,
		sendSeq:      sendSeq,
		recvNext:     recvNext,
		ackWaiter:    make(map[uint32]chan struct{}),
		oooBuf:       make(map[uint32][]byte),
		dispatch:     make(chan []byte, 64),
		handlerReady: make(chan struct{}),
		established:  make(chan struct{}),
		done:         make(chan struct{}),
	}
	s.state.Store(int32(state))
	go s.dispatchLoop()
	return s
}

// dispatchLoop delivers received messages to the handler in order,
// waiting for a handler to be registered before consuming the first
// message so early traffic is never lost.
func (s *Stream) dispatchLoop() {
	select {
	case <-s.handlerReady:
	case <-s.done:
		return
	}
	for {
		select {
		case msg := <-s.dispatch:
			s.handlerMu.Lock()
			h := s.onMessage
			s.handlerMu.Unlock()
			if h != nil {
				h(msg)
			}
		case <-s.done:
			// Drain anything already queued, then exit.
			for {
				select {
				case msg := <-s.dispatch:
					s.handlerMu.Lock()
					h := s.onMessage
					s.handlerMu.Unlock()
					if h != nil {
						h(msg)
					}
				default:
					return
				}
			}
		}
	}
}

// OnMessage registers the receive callback. Messages arriving before
// registration are queued (up to the dispatch buffer) and delivered
// in order once registered.
func (s *Stream) OnMessage(h func([]byte)) {
	s.handlerMu.Lock()
	s.onMessage = h
	s.handlerMu.Unlock()
	s.readyOnce.Do(func() { close(s.handlerReady) })
}

// RemoteIP returns the peer's address.
func (s *Stream) RemoteIP() packet.IPv4Address { return s.key.remoteIP }

// Send transmits one message reliably, blocking until the peer
// acknowledges it or retransmissions are exhausted.
func (s *Stream) Send(msg []byte) error {
	if streamState(s.state.Load()) != stateEstablished {
		return ErrClosed
	}
	s.mu.Lock()
	seq := s.sendSeq
	s.sendSeq++
	ch := make(chan struct{})
	s.ackWaiter[seq+1] = ch
	s.mu.Unlock()

	payload := make([]byte, len(msg))
	copy(payload, msg)

	interval := s.stack.RetransmitInterval
	tries := s.stack.MaxRetransmits
	t := time.NewTimer(interval)
	defer t.Stop()
	for attempt := 0; attempt <= tries; attempt++ {
		s.sendSegment(packet.TCPPsh|packet.TCPAck, seq, s.loadRecvNext(), payload)
		select {
		case <-ch:
			return nil
		case <-s.done:
			return s.closeReason()
		case <-t.C:
			t.Reset(interval)
		}
	}
	s.mu.Lock()
	delete(s.ackWaiter, seq+1)
	s.mu.Unlock()
	return fmt.Errorf("%w: message seq %d unacknowledged after %d attempts", ErrTimeout, seq, tries+1)
}

func (s *Stream) loadRecvNext() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recvNext
}

// Close performs a FIN teardown (best-effort) and releases resources.
func (s *Stream) Close() {
	if streamState(s.state.Load()) == stateEstablished {
		s.sendSegment(packet.TCPFin|packet.TCPAck, s.loadSendSeq(), s.loadRecvNext(), nil)
	}
	s.teardown(nil)
}

func (s *Stream) loadSendSeq() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sendSeq
}

// teardown closes the stream exactly once with the given reason.
func (s *Stream) teardown(reason error) {
	s.closeOnce.Do(func() {
		s.closeErr = reason
		s.state.Store(int32(stateClosed))
		close(s.done)
		s.stack.removeStream(s.key)
	})
}

func (s *Stream) closeReason() error {
	if s.closeErr != nil {
		return s.closeErr
	}
	return ErrClosed
}

// sendSegment emits one TCP segment for this connection.
func (s *Stream) sendSegment(flags packet.TCPFlags, seq, ack uint32, payload []byte) {
	s.stack.sendTCPSegment(s.key.remoteIP, s.key.localPort, s.key.remotePort, flags, seq, ack, payload)
}

// --- Stack-side stream plumbing ---

// sendTCPSegment serializes and transmits one segment.
func (st *Stack) sendTCPSegment(dstIP packet.IPv4Address, srcPort, dstPort uint16, flags packet.TCPFlags, seq, ack uint32, payload []byte) {
	_ = st.resolveAndSend(dstIP, func(dstMAC packet.MACAddress) ([]byte, error) {
		tcp := &packet.TCP{SrcPort: srcPort, DstPort: dstPort, Seq: seq, Ack: ack, Flags: flags}
		tcp.SetNetworkForChecksum(st.ip, dstIP)
		b := packet.NewSerializeBuffer()
		layers := []packet.SerializableLayer{
			&packet.Ethernet{SrcMAC: st.mac, DstMAC: dstMAC, EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{SrcIP: st.ip, DstIP: dstIP, Protocol: packet.IPProtocolTCP},
			tcp,
		}
		if len(payload) > 0 {
			layers = append(layers, packet.NewPayload(payload))
		}
		if err := packet.SerializeLayers(b, layers...); err != nil {
			return nil, err
		}
		out := make([]byte, b.Len())
		copy(out, b.Bytes())
		return out, nil
	})
}

// Listen binds a stream handler to a local port.
func (st *Stack) Listen(port uint16, h StreamHandler) error {
	st.streamMu.Lock()
	defer st.streamMu.Unlock()
	if _, dup := st.listeners[port]; dup {
		return fmt.Errorf("%w: tcp/%d on %s", ErrPortInUse, port, st.name)
	}
	st.listeners[port] = h
	return nil
}

// Dial opens a stream to dstIP:dstPort, blocking until the handshake
// completes or timeout elapses.
func (st *Stack) Dial(dstIP packet.IPv4Address, dstPort uint16, timeout time.Duration) (*Stream, error) {
	localPort := st.allocPort()
	key := connKey{localPort: localPort, remoteIP: dstIP, remotePort: dstPort}
	seq := isn.Add(1000)
	s := newStream(st, key, stateSynSent, seq+1, 0)

	st.streamMu.Lock()
	if _, dup := st.conns[key]; dup {
		st.streamMu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrPortInUse, key)
	}
	st.conns[key] = s
	st.streamMu.Unlock()

	deadline := time.Now().Add(timeout)
	interval := st.RetransmitInterval
	t := time.NewTimer(interval)
	defer t.Stop()
	for {
		st.sendTCPSegment(dstIP, localPort, dstPort, packet.TCPSyn, seq, 0, nil)
		select {
		case <-s.established:
			return s, nil
		case <-s.done:
			return nil, s.closeReason()
		case <-t.C:
			if time.Now().After(deadline) {
				s.teardown(ErrTimeout)
				return nil, fmt.Errorf("%w: dialing %s:%d", ErrTimeout, dstIP, dstPort)
			}
			t.Reset(interval)
		}
	}
}

// removeStream drops the connection from the demux table.
func (st *Stack) removeStream(key connKey) {
	st.streamMu.Lock()
	defer st.streamMu.Unlock()
	if cur, ok := st.conns[key]; ok && streamState(cur.state.Load()) == stateClosed {
		delete(st.conns, key)
	}
}

// handleTCP demultiplexes an inbound segment.
func (st *Stack) handleTCP(ip *packet.IPv4, tcp *packet.TCP) {
	key := connKey{localPort: tcp.DstPort, remoteIP: ip.SrcIP, remotePort: tcp.SrcPort}
	st.streamMu.Lock()
	s, exists := st.conns[key]
	st.streamMu.Unlock()

	if !exists {
		if tcp.Flags.Has(packet.TCPSyn) && !tcp.Flags.Has(packet.TCPAck) {
			st.acceptSyn(key, tcp)
			return
		}
		if !tcp.Flags.Has(packet.TCPRst) {
			// Nothing here: refuse.
			st.sendTCPSegment(ip.SrcIP, tcp.DstPort, tcp.SrcPort, packet.TCPRst, 0, tcp.Seq+1, nil)
		}
		return
	}
	s.handleSegment(tcp)
}

// acceptSyn creates the passive side of a connection if a listener is
// bound.
func (st *Stack) acceptSyn(key connKey, tcp *packet.TCP) {
	st.streamMu.Lock()
	h, listening := st.listeners[key.localPort]
	if !listening {
		st.streamMu.Unlock()
		st.sendTCPSegment(key.remoteIP, key.localPort, key.remotePort, packet.TCPRst, 0, tcp.Seq+1, nil)
		return
	}
	seq := isn.Add(1000)
	s := newStream(st, key, stateSynReceived, seq+1, tcp.Seq+1)
	st.conns[key] = s
	st.streamMu.Unlock()

	s.sendSegment(packet.TCPSyn|packet.TCPAck, seq, tcp.Seq+1, nil)
	// The handler runs once the three-way handshake completes; see
	// handleSegment's transition to established.
	go func() {
		select {
		case <-s.established:
			h(s)
		case <-s.done:
		}
	}()
}

// handleSegment advances the stream state machine. Runs inside the
// stack's HandleFrame; everything here is quick and non-blocking.
func (s *Stream) handleSegment(tcp *packet.TCP) {
	if tcp.Flags.Has(packet.TCPRst) {
		s.teardown(ErrReset)
		return
	}
	state := streamState(s.state.Load())
	switch state {
	case stateSynSent:
		if tcp.Flags.Has(packet.TCPSyn | packet.TCPAck) {
			s.mu.Lock()
			s.recvNext = tcp.Seq + 1
			s.mu.Unlock()
			s.state.Store(int32(stateEstablished))
			s.sendSegment(packet.TCPAck, s.loadSendSeq(), tcp.Seq+1, nil)
			close(s.established)
		}
	case stateSynReceived:
		if tcp.Flags.Has(packet.TCPAck) && !tcp.Flags.Has(packet.TCPSyn) {
			s.state.Store(int32(stateEstablished))
			close(s.established)
			// The ACK completing the handshake may already carry data.
			if len(tcp.LayerPayload()) > 0 {
				s.acceptData(tcp)
			}
		} else if tcp.Flags.Has(packet.TCPSyn) {
			// Retransmitted SYN: re-send SYN|ACK.
			s.sendSegment(packet.TCPSyn|packet.TCPAck, s.loadSendSeq()-1, tcp.Seq+1, nil)
		}
	case stateEstablished:
		if tcp.Flags.Has(packet.TCPFin) {
			s.sendSegment(packet.TCPAck, s.loadSendSeq(), tcp.Seq+1, nil)
			s.teardown(nil)
			return
		}
		if tcp.Flags.Has(packet.TCPAck) {
			// Cumulative ack: an ack for N confirms every message up
			// to N, so a lost intermediate ACK can't strand a waiter.
			s.mu.Lock()
			for want, ch := range s.ackWaiter {
				if !seqBefore(tcp.Ack, want) {
					close(ch)
					delete(s.ackWaiter, want)
				}
			}
			s.mu.Unlock()
		}
		if len(tcp.LayerPayload()) > 0 {
			s.acceptData(tcp)
		}
	case stateClosed:
		if !tcp.Flags.Has(packet.TCPRst) {
			s.sendSegment(packet.TCPRst, 0, tcp.Seq+1, nil)
		}
	}
}

// acceptData handles an in-order/out-of-order/duplicate data segment:
// exactly-once, in-order delivery to the dispatcher.
func (s *Stream) acceptData(tcp *packet.TCP) {
	payload := tcp.LayerPayload()
	s.mu.Lock()
	switch {
	case tcp.Seq == s.recvNext:
		s.deliverLocked(payload)
		// Drain any buffered successors.
		for {
			next, ok := s.oooBuf[s.recvNext]
			if !ok {
				break
			}
			delete(s.oooBuf, s.recvNext)
			s.deliverLocked(next)
		}
	case seqBefore(tcp.Seq, s.recvNext):
		// Duplicate: re-ack below, do not deliver again.
	default:
		// Future segment: buffer (bounded).
		if len(s.oooBuf) < 1024 {
			cp := make([]byte, len(payload))
			copy(cp, payload)
			s.oooBuf[tcp.Seq] = cp
		}
	}
	ackNum := s.recvNext
	s.mu.Unlock()
	s.sendSegment(packet.TCPAck, s.loadSendSeq(), ackNum, nil)
}

// deliverLocked queues one message for ordered dispatch; caller holds
// s.mu.
func (s *Stream) deliverLocked(payload []byte) {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	s.recvNext++
	select {
	case s.dispatch <- cp:
	default:
		// Dispatcher overwhelmed: the message is acked but dropped
		// before the application handler — app-level loss under
		// extreme overload, the price of a bounded queue that can
		// never block the goroutine draining the network.
	}
}

// seqBefore reports a < b in sequence space (wraparound-aware).
func seqBefore(a, b uint32) bool { return int32(a-b) < 0 }
