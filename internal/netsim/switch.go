package netsim

import (
	"sync"
	"sync/atomic"
	"time"

	"iotsec/internal/openflow"
	"iotsec/internal/packet"
)

// PinCookieTag ('T') is the cookie class of the entries Attach writes
// (openflow.ClassCookie), beside the profile plane's 'P' and the
// quarantine plane's 'Q'.
const PinCookieTag = 0x54

// pinPriority is the pins' priority: below everything the controller
// installs (profile rules 250–310, quarantine drops 400), so a pin
// forwards only what no policy rule has claimed.
const pinPriority uint16 = 100

// PacketInFunc receives punted frames from a Switch; the agent wires
// this to the southbound connection.
type PacketInFunc func(inPort uint16, reason uint8, frame Frame)

// Switch is an OpenFlow-programmable virtual switch node. It forwards
// by table only: a frame that matches no entry is dropped and counted
// (as an OpenFlow 1.3 table with no table-miss entry does). A rig that
// wants misses flooded or punted installs a priority-0 MatchAll entry
// saying so.
type Switch struct {
	name string
	dpid uint64

	table *openflow.FlowTable

	mu       sync.RWMutex
	ports    map[uint16]*Port
	packetIn PacketInFunc

	packetsIn  atomic.Uint64 // frames received
	packetsOut atomic.Uint64 // frames forwarded
}

// NewSwitch creates a switch with the given datapath ID. Its table
// starts with one entry, broadcast → flood, because ARP has to find its
// target before there is a unicast MAC to pin. Hosts are plugged in
// afterwards with Attach.
func NewSwitch(name string, dpid uint64) *Switch {
	s := &Switch{
		name:  name,
		dpid:  dpid,
		table: openflow.NewFlowTable(),
		ports: make(map[uint16]*Port),
	}
	s.pin(packet.BroadcastMAC, openflow.Flood())
	return s
}

// pin writes the PinCookieTag entry eth_dst=<mac> → action.
func (s *Switch) pin(mac packet.MACAddress, action openflow.Action) {
	s.table.Insert(openflow.FlowEntry{
		Match:    openflow.MatchAll().WithEthDst(mac),
		Priority: pinPriority,
		Actions:  []openflow.Action{action},
		Cookie:   openflow.ClassCookie(PinCookieTag, mac),
	})
}

// NodeName implements Node.
func (s *Switch) NodeName() string { return s.name }

// DatapathID returns the switch's datapath identifier.
func (s *Switch) DatapathID() uint64 { return s.dpid }

// Table exposes the flow table (the agent programs it via FLOW_MOD).
func (s *Switch) Table() *openflow.FlowTable { return s.table }

// SetPacketInHandler wires punted frames to the southbound agent.
func (s *Switch) SetPacketInHandler(fn PacketInFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.packetIn = fn
}

// AttachPort creates and registers a new port with the given ID on the
// network fabric. It writes no pin, so a host wired to it receives
// broadcast only; Attach is how a host is plugged in.
func (s *Switch) AttachPort(n *Network, id uint16) *Port {
	p := n.NewPort(s, id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ports[id] = p
	return p
}

// Attach plugs a host in: it takes the next free switch port, links it
// to the host-side port, and pins the host's MAC behind it
// (eth_dst=<mac> → output:<port>). The switch is the one place that
// knows port ↔ MAC for every attachment, so the pin goes straight into
// the local table, southbound session or not. A frame then reaches its
// owner's port only.
func (s *Switch) Attach(n *Network, host *Port, mac packet.MACAddress) *Port {
	s.mu.Lock()
	id := uint16(len(s.ports) + 1)
	for s.ports[id] != nil {
		id++
	}
	sp := n.NewPort(s, id)
	s.ports[id] = sp
	s.mu.Unlock()
	n.Connect(host, sp, LinkOptions{})
	s.pin(mac, openflow.Output(id))
	return sp
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
	// Each frame borrows a pooled decoder (switches on different
	// networks run at once), and the decoded view dies at the Lookup
	// return.
	dec := packet.GetDecoder()
	decoded := dec.Decode(frame, packet.LayerTypeEthernet)
	entry, ok := s.table.Lookup(decoded, ingress.ID, len(frame))
	packet.PutDecoder(dec)
	if !ok {
		mSwitchTableMiss.Inc()
		return
	}
	s.applyActions(entry.Actions, ingress.ID, frame, false)
}

// applyActions executes an action list on a frame (used for both flow
// entries and PACKET_OUT). With handoff, the frames it outputs are
// sent as Port.send says.
func (s *Switch) applyActions(actions []openflow.Action, inPort uint16, frame Frame, handoff bool) {
	for _, a := range actions {
		switch a.Type {
		case openflow.ActionTypeOutput:
			s.output(a.Port, frame, handoff)
		case openflow.ActionTypeFlood:
			s.flood(inPort, frame, handoff)
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

func (s *Switch) output(portID uint16, frame Frame, handoff bool) {
	s.mu.RLock()
	p := s.ports[portID]
	s.mu.RUnlock()
	if p != nil {
		s.packetsOut.Add(1)
		mSwitchPacketsOut.Inc()
		p.send(frame, handoff)
	}
}

// flood sends the frame out of every port but except. It copies the
// port list first: a send may drain the network, and a handler it runs
// may attach a port, which takes s.mu.
func (s *Switch) flood(except uint16, frame Frame, handoff bool) {
	var buf [32]*Port
	out := buf[:0]
	s.mu.RLock()
	for id, p := range s.ports {
		if id != except {
			out = append(out, p)
		}
	}
	s.mu.RUnlock()
	for _, p := range out {
		s.packetsOut.Add(1)
		mSwitchPacketsOut.Inc()
		p.send(frame, handoff)
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

// Stats reports aggregate counters. Every table miss was dropped.
func (s *Switch) Stats() (packetsIn, packetsOut, tableMiss uint64, flows int) {
	return s.packetsIn.Load(), s.packetsOut.Load(), s.table.Misses(), s.table.Len()
}
