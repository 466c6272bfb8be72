package mbox

import (
	"sync/atomic"

	"iotsec/internal/netsim"
	"iotsec/internal/packet"
)

// Mbox is one deployed µmbox: a bump-in-the-wire node with a south
// port (toward the protected device) and a north port (toward the rest
// of the network). Frames entering south are FromDevice; frames
// entering north are ToDevice. The pipeline decides their fate.
type Mbox struct {
	name     string
	pipeline *Pipeline

	south *netsim.Port
	north *netsim.Port
	// toSouth and toNorth send on the ports; built once so a frame's
	// Context costs no closure.
	toSouth, toNorth func(frame []byte)

	// protected, when set, scopes the pipeline to traffic involving
	// this address: on shared/flooded segments, foreign frames pass
	// through untouched (they are not this µmbox's job).
	protected    packet.IPv4Address
	hasProtected atomic.Bool

	forwarded atomic.Uint64
	dropped   atomic.Uint64
}

// NewMbox wraps a pipeline as a deployable node.
func NewMbox(name string, pipeline *Pipeline) *Mbox {
	return &Mbox{name: name, pipeline: pipeline}
}

// NodeName implements netsim.Node.
func (m *Mbox) NodeName() string { return m.name }

// Pipeline exposes the element chain for live reconfiguration.
func (m *Mbox) Pipeline() *Pipeline { return m.pipeline }

// SetProtectedIP scopes the pipeline to traffic to/from the given
// device address. Call before traffic flows.
func (m *Mbox) SetProtectedIP(ip packet.IPv4Address) {
	m.protected = ip
	m.hasProtected.Store(true)
}

// AttachInline creates the south and north ports on the network.
// Callers wire south toward the device's access port and north toward
// the switch/uplink.
func (m *Mbox) AttachInline(n *netsim.Network) (south, north *netsim.Port) {
	m.south = n.NewPort(m, 1)
	m.north = n.NewPort(m, 2)
	m.toSouth = func(f []byte) { m.south.Send(f) }
	m.toNorth = func(f []byte) { m.north.Send(f) }
	return m.south, m.north
}

// HandleFrame implements netsim.Node.
func (m *Mbox) HandleFrame(ingress *netsim.Port, frame netsim.Frame) {
	dir, onward, back := ToDevice, m.toSouth, m.toNorth
	if ingress == m.south {
		dir, onward, back = FromDevice, m.toNorth, m.toSouth
	}
	// Both ports deliver concurrently; the pooled decoder's packet view
	// must not outlive this frame (pipeline elements do not retain it,
	// and a Reparse swaps in an eagerly decoded packet).
	dec := packet.GetDecoder()
	defer packet.PutDecoder(dec)
	decoded := dec.Decode(frame, packet.LayerTypeEthernet)
	// Scoping: foreign IPv4 traffic flooded onto this leg is not ours
	// to police — pass it through (the device's own stack discards
	// frames not addressed to it). ARP and non-IP frames always pass
	// through the pipeline-free path too unless they involve us.
	if m.hasProtected.Load() {
		if ip := decoded.IPv4(); ip != nil && ip.SrcIP != m.protected && ip.DstIP != m.protected {
			m.forwarded.Add(1)
			mForwarded.Inc()
			onward(frame)
			return
		}
	}
	ctx := &Context{
		Frame:  frame,
		Packet: decoded,
		Dir:    dir,
		Inject: back,
		Onward: onward,
	}
	switch m.pipeline.Process(ctx) {
	case Forward:
		m.forwarded.Add(1)
		mForwarded.Inc()
		onward(ctx.Frame)
	case Drop:
		m.dropped.Add(1)
		mDropped.Inc()
	case Consumed:
		// The element already responded (or absorbed) the frame.
	}
}

// Counters reports forwarded/dropped totals.
func (m *Mbox) Counters() (forwarded, dropped uint64) {
	return m.forwarded.Load(), m.dropped.Load()
}
