// Package netsim provides a virtual switched network: nodes attach
// through ports, ports are wired together by links with configurable
// latency and loss, and frames are delivered asynchronously on
// per-port goroutines. On top of the raw fabric it offers an SDN
// switch node (programmable via the openflow package) and a miniature
// host stack (ARP, UDP, reliable message streams) that the emulated
// IoT devices, µmboxes and attackers all share.
package netsim

import (
	"sync"
	"sync/atomic"
)

// Frame is a raw L2 frame on the virtual wire.
type Frame []byte

// Node is anything that can terminate ports: a switch, a host, a
// middlebox instance.
type Node interface {
	// NodeName returns a unique, human-readable identifier.
	NodeName() string
	// HandleFrame processes a frame arriving on one of the node's
	// ports. It runs on the port's delivery goroutine. The frame is
	// read-only: links hand buffers over without copying, so the same
	// bytes may be in front of every other port a switch flooded them
	// to. A node that rewrites a frame builds a new one.
	HandleFrame(ingress *Port, frame Frame)
}

// PortStats counts traffic through one port.
type PortStats struct {
	TxFrames, TxBytes uint64
	RxFrames, RxBytes uint64
	DropsQueue        uint64
}

// Port is a node's attachment point. A port delivers received frames
// to its owner via a dedicated goroutine, so nodes never block each
// other.
type Port struct {
	// ID is the port number within its owner (1-based, OpenFlow
	// style).
	ID    uint16
	owner Node
	// link is set when the port is wired; atomic because wiring may
	// happen while the fabric is live.
	link atomic.Pointer[Link]

	// act, when set, is the owning network's in-flight accounting used
	// by Network.Quiesce (nil for ports built outside a Network).
	act *activity

	inbox chan Frame
	stats struct {
		txFrames, txBytes atomic.Uint64
		rxFrames, rxBytes atomic.Uint64
		dropsQueue        atomic.Uint64
	}

	closeOnce sync.Once
	closed    chan struct{}
}

// newPort allocates a port with the given queue depth.
func newPort(owner Node, id uint16, queueLen int) *Port {
	if queueLen <= 0 {
		queueLen = 256
	}
	return &Port{
		ID:     id,
		owner:  owner,
		inbox:  make(chan Frame, queueLen),
		closed: make(chan struct{}),
	}
}

// Owner returns the node this port belongs to.
func (p *Port) Owner() Node { return p.owner }

// Peer returns the port at the other end of the link, or nil if
// unwired.
func (p *Port) Peer() *Port {
	l := p.link.Load()
	if l == nil {
		return nil
	}
	if l.a == p {
		return l.b
	}
	return l.a
}

// Send transmits a frame out of this port toward the link peer. The
// frame buffer must not be modified by the caller afterwards. Frames
// sent on an unwired or closed port are silently dropped, as on real
// hardware.
func (p *Port) Send(frame Frame) {
	p.stats.txFrames.Add(1)
	p.stats.txBytes.Add(uint64(len(frame)))
	l := p.link.Load()
	if l == nil {
		return
	}
	peer := l.b
	if peer == p {
		peer = l.a
	}
	l.deliver(p, peer, frame)
}

// enqueue places a frame in the inbox, dropping on overflow. The
// frame is accounted as in-flight until the owner handles it (or it
// is dropped), so Network.Quiesce sees queued work.
func (p *Port) enqueue(frame Frame) {
	if p.act != nil {
		p.act.add(1)
	}
	select {
	case <-p.closed:
		if p.act != nil {
			p.act.add(-1)
		}
	case p.inbox <- frame:
		return
	default:
		if p.act != nil {
			p.act.add(-1)
		}
		p.stats.dropsQueue.Add(1)
		mQueueDrops.Inc()
	}
}

// run pumps the inbox into the owner until the port closes.
func (p *Port) run() {
	mPortsOpen.Inc()
	defer mPortsOpen.Dec()
	for {
		select {
		case <-p.closed:
			// Frames already queued will never be delivered; release
			// their in-flight accounting.
			for {
				select {
				case <-p.inbox:
					if p.act != nil {
						p.act.add(-1)
					}
				default:
					return
				}
			}
		case f := <-p.inbox:
			p.stats.rxFrames.Add(1)
			p.stats.rxBytes.Add(uint64(len(f)))
			p.owner.HandleFrame(p, f)
			if p.act != nil {
				p.act.add(-1)
			}
		}
	}
}

// close stops delivery.
func (p *Port) close() {
	p.closeOnce.Do(func() { close(p.closed) })
}

// Stats snapshots the port counters.
func (p *Port) Stats() PortStats {
	return PortStats{
		TxFrames:   p.stats.txFrames.Load(),
		TxBytes:    p.stats.txBytes.Load(),
		RxFrames:   p.stats.rxFrames.Load(),
		RxBytes:    p.stats.rxBytes.Load(),
		DropsQueue: p.stats.dropsQueue.Load(),
	}
}
