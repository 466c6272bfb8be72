package netsim

import (
	"sync"
	"sync/atomic"
	"time"

	"iotsec/internal/openflow"
	"iotsec/internal/packet"
)

// MissBehavior selects what an SDN switch does with a frame that
// matches no flow entry.
type MissBehavior int

// Miss behaviors.
const (
	// MissPunt sends the frame to the controller (normal SDN mode).
	MissPunt MissBehavior = iota
	// MissFlood floods the frame (learning-switch bootstrap mode): for
	// stand-alone rigs that install no forwarding entries. Every port
	// sees every frame, so nothing that isolates devices runs on it.
	MissFlood
	// MissDrop discards the frame and counts it (fail-closed): only
	// what the table names is reachable.
	MissDrop
)

// PacketInFunc receives punted frames from a Switch; the agent wires
// this to the southbound connection.
type PacketInFunc func(inPort uint16, reason uint8, frame Frame)

// Switch is an OpenFlow-programmable virtual switch node.
type Switch struct {
	name string
	dpid uint64

	table *openflow.FlowTable
	miss  atomic.Int32

	mu       sync.RWMutex
	ports    map[uint16]*Port
	packetIn PacketInFunc

	packetsIn   atomic.Uint64 // frames received
	packetsOut  atomic.Uint64 // frames forwarded
	missDropped atomic.Uint64 // table misses discarded under MissDrop
}

// NewSwitch creates a switch with the given datapath ID. Ports are
// attached afterwards with AttachPort.
func NewSwitch(name string, dpid uint64) *Switch {
	return &Switch{
		name:  name,
		dpid:  dpid,
		table: openflow.NewFlowTable(),
		ports: make(map[uint16]*Port),
	}
}

// NodeName implements Node.
func (s *Switch) NodeName() string { return s.name }

// DatapathID returns the switch's datapath identifier.
func (s *Switch) DatapathID() uint64 { return s.dpid }

// Table exposes the flow table (the agent programs it via FLOW_MOD).
func (s *Switch) Table() *openflow.FlowTable { return s.table }

// SetMissBehavior configures table-miss handling.
func (s *Switch) SetMissBehavior(m MissBehavior) { s.miss.Store(int32(m)) }

// SetPacketInHandler wires punted frames to the southbound agent.
func (s *Switch) SetPacketInHandler(fn PacketInFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.packetIn = fn
}

// AttachPort creates and registers a new port with the given ID on the
// network fabric.
func (s *Switch) AttachPort(n *Network, id uint16) *Port {
	p := n.NewPort(s, id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ports[id] = p
	return p
}

// PortIDs lists the attached port numbers.
func (s *Switch) PortIDs() []uint16 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]uint16, 0, len(s.ports))
	for id := range s.ports {
		ids = append(ids, id)
	}
	return ids
}

// HandleFrame implements Node: classify against the flow table and
// apply the winning entry's actions.
func (s *Switch) HandleFrame(ingress *Port, frame Frame) {
	s.packetsIn.Add(1)
	mSwitchPacketsIn.Inc()
	// Per-port goroutines hit this concurrently: each frame borrows a
	// pooled decoder, and the decoded view dies at the Lookup return.
	dec := packet.GetDecoder()
	decoded := dec.Decode(frame, packet.LayerTypeEthernet)
	entry, ok := s.table.Lookup(decoded, ingress.ID, len(frame))
	packet.PutDecoder(dec)
	if !ok {
		mSwitchTableMiss.Inc()
		switch MissBehavior(s.miss.Load()) {
		case MissFlood:
			s.flood(ingress.ID, frame)
		case MissPunt:
			s.punt(ingress.ID, 0, frame)
		case MissDrop:
			s.missDropped.Add(1)
			mSwitchMissDropped.Inc()
		}
		return
	}
	s.ApplyActions(entry.Actions, ingress.ID, frame)
}

// ApplyActions executes an action list on a frame (used for both flow
// entries and PACKET_OUT).
func (s *Switch) ApplyActions(actions []openflow.Action, inPort uint16, frame Frame) {
	for _, a := range actions {
		switch a.Type {
		case openflow.ActionTypeOutput:
			s.output(a.Port, frame)
		case openflow.ActionTypeFlood:
			s.flood(inPort, frame)
		case openflow.ActionTypeController:
			s.punt(inPort, 1, frame)
		// A set-field writes to a copy: the frame in hand is read-only,
		// other ports (or an earlier output of this list) may hold it.
		case openflow.ActionTypeSetEthDst:
			if len(frame) >= 6 {
				frame = append(Frame(nil), frame...)
				copy(frame[0:6], a.MAC[:])
			}
		case openflow.ActionTypeSetEthSrc:
			if len(frame) >= 12 {
				frame = append(Frame(nil), frame...)
				copy(frame[6:12], a.MAC[:])
			}
		}
	}
}

func (s *Switch) output(portID uint16, frame Frame) {
	s.mu.RLock()
	p := s.ports[portID]
	s.mu.RUnlock()
	if p != nil {
		s.packetsOut.Add(1)
		mSwitchPacketsOut.Inc()
		p.Send(frame)
	}
}

func (s *Switch) flood(except uint16, frame Frame) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id, p := range s.ports {
		if id == except {
			continue
		}
		s.packetsOut.Add(1)
		mSwitchPacketsOut.Inc()
		p.Send(frame)
	}
}

func (s *Switch) punt(inPort uint16, reason uint8, frame Frame) {
	s.mu.RLock()
	fn := s.packetIn
	s.mu.RUnlock()
	if fn != nil {
		fn(inPort, reason, frame)
	}
}

// ExpireFlows evicts timed-out entries as of now, returning them so
// the agent can emit FLOW_REMOVED.
func (s *Switch) ExpireFlows(now time.Time) []openflow.FlowEntry {
	return s.table.Expire(now)
}

// MissDropped reports how many table misses MissDrop discarded: frames
// for a destination nothing on this switch was told how to reach.
func (s *Switch) MissDropped() uint64 { return s.missDropped.Load() }

// Stats reports aggregate counters.
func (s *Switch) Stats() (packetsIn, packetsOut, tableMiss uint64, flows int) {
	return s.packetsIn.Load(), s.packetsOut.Load(), s.table.Misses(), s.table.Len()
}
