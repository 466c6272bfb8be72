// Package netsim provides a virtual switched network: nodes attach
// through ports, ports are wired together by instant, lossless links,
// and every frame runs to completion on the goroutine that sent it,
// through one delivery queue per network (see Port.Send). On top of
// the raw fabric it offers an SDN switch node (programmable via the
// openflow package) and a miniature host stack (ARP, UDP, reliable
// message streams) that the emulated IoT devices, µmboxes and
// attackers all share.
package netsim

import (
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
	// ports. It runs on whichever goroutine is draining the network's
	// delivery queue — usually the one whose Send started the cascade
	// — and never concurrently with another handler on the same
	// network. Frames it sends are queued and delivered after it
	// returns. It must never wait for another frame on its own
	// network: that frame could only be delivered by the goroutine it
	// is blocking. A handler that blocks on something else delays
	// later frames on the network, but never their senders.
	//
	// The frame is read-only: links hand buffers over without copying,
	// so the same bytes may be in front of every other port a switch
	// flooded them to. A node that rewrites a frame builds a new one.
	HandleFrame(ingress *Port, frame Frame)
}

// PortStats counts traffic through one port.
type PortStats struct {
	TxFrames, TxBytes uint64
	RxFrames, RxBytes uint64
	DropsQueue        uint64
}

// portQueueLen bounds the frames waiting for one port; a frame sent to
// a full port is dropped and counted in PortStats.DropsQueue.
const portQueueLen = 256

// Port is a node's attachment point. Frames for it wait in its
// network's delivery queue, at most portQueueLen at a time, and reach
// the owner one at a time, in the order they were sent.
type Port struct {
	// ID is the port number within its owner (1-based, OpenFlow
	// style).
	ID    uint16
	owner Node
	// net is the network whose delivery queue carries this port's
	// frames.
	net *Network
	// link is set when the port is wired; atomic because wiring may
	// happen while the fabric is live.
	link atomic.Pointer[Link]

	// queued counts this port's frames in net's delivery queue; guarded
	// by net.mu.
	queued int

	stats struct {
		txFrames, txBytes atomic.Uint64
		rxFrames, rxBytes atomic.Uint64
		dropsQueue        atomic.Uint64
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
	return l.peer(p)
}

// Send transmits a frame out of this port toward the link peer. The
// frame buffer must not be modified by the caller afterwards. Frames
// sent on an unwired port, or on a stopped network, are silently
// dropped, as on real hardware.
//
// The frame joins the peer network's delivery queue. If no goroutine
// is draining that queue, the caller drains it: it runs each queued
// frame's HandleFrame until the queue is empty, so an idle fabric
// delivers the whole cascade before Send returns. A Send made inside a
// handler, or while another goroutine drains, only queues and returns
// at once.
func (p *Port) Send(frame Frame) { p.send(frame, false) }

// send is Send; with handoff, a caller that would have to drain starts
// a goroutine to do it instead, for callers that must never run a
// handler (the southbound agent's serve loop).
func (p *Port) send(frame Frame, handoff bool) {
	p.stats.txFrames.Add(1)
	p.stats.txBytes.Add(uint64(len(frame)))
	l := p.link.Load()
	if l == nil {
		return
	}
	peer := l.peer(p)
	peer.net.enqueue(p, peer, frame, handoff)
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
