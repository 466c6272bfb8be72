package learn

import (
	"fmt"
	"sort"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/envsim"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
)

// Testbed is the deeply instrumented setup §4.2 proposes for building
// empirical device models: one live emulated device, the environment
// it acts on, and credentials good enough to actuate it.
type Testbed struct {
	// Client reaches the device over the fabric.
	Client *device.Client
	// Device is the unit under instrumentation.
	Device *device.Device
	// Env is the physical world; the extractor steps it to observe
	// effects.
	Env *envsim.Environment
	// Disc maps environment variables to the discrete levels the
	// abstract model uses.
	Disc *envsim.Discretizer
	// StateKey is the device state field that defines the FSM state
	// (e.g. "power" for a plug, "window" for an actuator).
	StateKey string
	// User/Pass authenticate actuation commands.
	User, Pass string
	// SettleTicks is how many environment steps to run after each
	// actuation before observing (default 3).
	SettleTicks int
}

// ExtractModel actuates the device through the candidate commands,
// observing state transitions and environment effects, and
// synthesizes an abstract Model — automating the model-library
// population the paper leaves as future work.
//
// The extractor sweeps the command list repeatedly until a sweep
// discovers nothing new, so toggle-style devices get both directions
// of every transition.
func ExtractModel(tb *Testbed, class string, commands []string) (*Model, error) {
	if tb.SettleTicks <= 0 {
		tb.SettleTicks = 3
	}
	settle := func() {
		for i := 0; i < tb.SettleTicks; i++ {
			tb.Env.Step()
		}
	}
	// Baseline: the environment with the device in its initial
	// state. Effects are observed as deviations from this baseline.
	settle()
	baseline := tb.Disc.Discretize(tb.Env.Snapshot())
	initial := tb.Device.Get(tb.StateKey)

	m := &Model{
		Class:       class,
		Initial:     initial,
		Transitions: make(map[string]map[string]string),
		Effects:     make(map[string][]Effect),
	}
	states := map[string]bool{initial: true}
	effectSeen := map[string]map[string]string{} // state → var → level

	recordEffects := func(state string) {
		now := tb.Disc.Discretize(tb.Env.Snapshot())
		for varName, level := range now {
			if baseline[varName] != level {
				if effectSeen[state] == nil {
					effectSeen[state] = map[string]string{}
				}
				effectSeen[state][varName] = level
			}
		}
	}

	const maxSweeps = 8
	for sweep := 0; sweep < maxSweeps; sweep++ {
		discovered := false
		for _, cmd := range commands {
			from := tb.Device.Get(tb.StateKey)
			resp, err := tb.Client.Call(tb.Device.IP(), device.Request{
				Cmd: cmd, User: tb.User, Pass: tb.Pass,
			})
			if err != nil {
				return nil, fmt.Errorf("learn: extracting %s/%s: %w", class, cmd, err)
			}
			if !resp.OK {
				continue // command not applicable; skip
			}
			settle()
			to := tb.Device.Get(tb.StateKey)
			if !states[to] {
				states[to] = true
				discovered = true
			}
			if m.Transitions[cmd] == nil {
				m.Transitions[cmd] = make(map[string]string)
			}
			if prev, ok := m.Transitions[cmd][from]; !ok || prev != to {
				if !ok {
					discovered = true
				}
				m.Transitions[cmd][from] = to
			}
			recordEffects(to)
		}
		if !discovered {
			break
		}
	}

	for s := range states {
		m.States = append(m.States, s)
	}
	sort.Strings(m.States)
	for state, vars := range effectSeen {
		for varName, level := range vars {
			m.Effects[state] = append(m.Effects[state], Effect{Var: varName, Level: level})
		}
	}
	// Drain in-flight device events before the caller reuses the
	// fabric: an explicit quiescence barrier, not a guessed sleep.
	if tb.Client != nil && tb.Client.Stack != nil {
		if n := tb.Client.Stack.Network(); n != nil {
			n.Quiesce(time.Second)
		}
	}
	return m, m.Validate()
}

// FlowObservation is one aggregated transport conversation of a
// device, as observed on its access link during a training window.
// Direction is inferred from the first frame seen: if the device sent
// it, the conversation is device-initiated and Port is the remote
// port; otherwise the device serves it and Port is the device port.
type FlowObservation struct {
	// Proto is "tcp" or "udp".
	Proto string
	// Port is the service port (see above).
	Port uint16
	// Remote is the peer address.
	Remote packet.IPv4Address
	// Initiated is true when the device opened the conversation.
	Initiated bool
	// Frames and Bytes count both directions.
	Frames int
	Bytes  int
	// First and Last bound the observation interval.
	First, Last time.Time
}

// flowKey identifies an aggregated conversation.
type flowKey struct {
	proto     string
	port      uint16
	remote    packet.IPv4Address
	initiated bool
}

// ObserveFlows distills the per-device transport conversations from a
// frame capture — the passive half of the §4.2 behavior-model
// pipeline, feeding SKU behavior profiles. Only hops on the device's
// own access link (frames sent or received by deviceNode) are
// counted, so multi-hop captures do not inflate counts; flooded
// frames merely passing the device are ignored via the address check.
//
// A device with zero observed flows yields an empty, non-nil slice —
// "saw nothing" is a valid observation (the resulting profile denies
// everything), not an error.
func ObserveFlows(frames []netsim.CapturedFrame, deviceNode string, deviceIP packet.IPv4Address) []FlowObservation {
	agg := make(map[flowKey]*FlowObservation)
	for _, f := range frames {
		fromDevice := f.SrcNode == deviceNode
		toDevice := f.DstNode == deviceNode
		if !fromDevice && !toDevice {
			continue // not the device's access link
		}
		pkt := packet.Decode(f.Data, packet.LayerTypeEthernet)
		ip := pkt.IPv4()
		if ip == nil {
			continue // ARP and non-IP frames carry no service tuple
		}
		var proto string
		var srcPort, dstPort uint16
		if t := pkt.TCP(); t != nil {
			proto, srcPort, dstPort = "tcp", t.SrcPort, t.DstPort
		} else if u := pkt.UDP(); u != nil {
			proto, srcPort, dstPort = "udp", u.SrcPort, u.DstPort
		} else {
			continue
		}
		var key flowKey
		switch {
		case fromDevice && ip.SrcIP == deviceIP:
			key = flowKey{proto: proto, port: dstPort, remote: ip.DstIP, initiated: true}
			// A reply leaving a served session has the device's port
			// as source; fold it into the served conversation if one
			// is already known rather than inventing an initiated one.
			if served := (flowKey{proto: proto, port: srcPort, remote: ip.DstIP, initiated: false}); agg[served] != nil {
				key = served
			}
		case toDevice && ip.DstIP == deviceIP:
			key = flowKey{proto: proto, port: dstPort, remote: ip.SrcIP, initiated: false}
			// Symmetrically, an inbound reply of a device-initiated
			// conversation arrives with the remote port as source.
			if init := (flowKey{proto: proto, port: srcPort, remote: ip.SrcIP, initiated: true}); agg[init] != nil {
				key = init
			}
		default:
			continue // flooded transit traffic, not the device's
		}
		o := agg[key]
		if o == nil {
			o = &FlowObservation{
				Proto: key.proto, Port: key.port,
				Remote: key.remote, Initiated: key.initiated,
				First: f.When, Last: f.When,
			}
			agg[key] = o
		}
		o.Frames++
		o.Bytes += len(f.Data)
		if f.When.Before(o.First) {
			o.First = f.When
		}
		if f.When.After(o.Last) {
			o.Last = f.When
		}
	}
	out := make([]FlowObservation, 0, len(agg))
	for _, o := range agg {
		out = append(out, *o)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Proto != b.Proto {
			return a.Proto < b.Proto
		}
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		if a.Initiated != b.Initiated {
			return !a.Initiated
		}
		return a.Remote.String() < b.Remote.String()
	})
	return out
}
