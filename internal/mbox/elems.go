package mbox

import (
	"fmt"
	"sync"
	"time"

	"iotsec/internal/ids"
	"iotsec/internal/packet"
	"iotsec/internal/resilience"
)

// --- Logger ---

// Logger counts traffic into the package-level /metrics aggregates and
// optionally reports each frame; always forwards.
type Logger struct {
	// Report, if set, receives a one-line summary per frame. Set it
	// before traffic flows; it is read without synchronization.
	Report func(line string)
}

// Name implements Element.
func (l *Logger) Name() string { return "logger" }

// Process implements Element.
func (l *Logger) Process(ctx *Context) Verdict {
	mLoggerFrames.Inc()
	mLoggerBytes.Add(uint64(len(ctx.Frame)))
	if l.Report != nil {
		l.Report(ctx.Packet.String())
	}
	return Forward
}

// --- Header filter (ACL) ---

// ACLAction is allow or deny.
type ACLAction bool

// ACL actions.
const (
	Allow ACLAction = true
	Deny  ACLAction = false
)

// ACLRule is one header predicate with an action. Zero-valued fields
// are wildcards.
type ACLRule struct {
	Action  ACLAction
	SrcIP   *packet.IPv4Address
	DstIP   *packet.IPv4Address
	Proto   *packet.IPProtocol
	DstPort *uint16
	Dir     *Direction
}

// matches applies the predicate.
func (r ACLRule) matches(ctx *Context) bool {
	if r.Dir != nil && *r.Dir != ctx.Dir {
		return false
	}
	ip := ctx.Packet.IPv4()
	if r.SrcIP != nil && (ip == nil || ip.SrcIP != *r.SrcIP) {
		return false
	}
	if r.DstIP != nil && (ip == nil || ip.DstIP != *r.DstIP) {
		return false
	}
	if r.Proto != nil && (ip == nil || ip.Protocol != *r.Proto) {
		return false
	}
	if r.DstPort != nil {
		var port uint16
		if t := ctx.Packet.TCP(); t != nil {
			port = t.DstPort
		} else if u := ctx.Packet.UDP(); u != nil {
			port = u.DstPort
		} else {
			return false
		}
		if port != *r.DstPort {
			return false
		}
	}
	return true
}

// HeaderFilter applies the first matching ACL rule; unmatched frames
// get the default action. The rules are fixed at construction.
type HeaderFilter struct {
	rules   []ACLRule
	defAct  ACLAction
	nameTag string
}

// NewHeaderFilter builds a filter with a default action.
func NewHeaderFilter(defaultAction ACLAction, rules ...ACLRule) *HeaderFilter {
	return &HeaderFilter{rules: rules, defAct: defaultAction, nameTag: "header-filter"}
}

// Name implements Element.
func (f *HeaderFilter) Name() string { return f.nameTag }

// Process implements Element.
func (f *HeaderFilter) Process(ctx *Context) Verdict {
	for _, r := range f.rules {
		if r.matches(ctx) {
			if r.Action == Allow {
				return Forward
			}
			return Drop
		}
	}
	if f.defAct == Allow {
		return Forward
	}
	return Drop
}

// --- Rate limiter ---

// RateLimiter enforces a token bucket over frames (aggregate), the
// countermeasure for DDoS-bot and amplification abuse.
type RateLimiter struct {
	mu         sync.Mutex
	capacity   float64
	tokens     float64
	refillRate float64 // tokens per second
	last       time.Time
	// Clock is injectable for tests; defaults to time.Now.
	Clock func() time.Time
}

// NewRateLimiter allows rate frames/second with the given burst.
func NewRateLimiter(rate float64, burst int) *RateLimiter {
	return &RateLimiter{
		capacity:   float64(burst),
		tokens:     float64(burst),
		refillRate: rate,
		Clock:      time.Now,
	}
}

// Name implements Element.
func (r *RateLimiter) Name() string { return "rate-limiter" }

// Process implements Element.
func (r *RateLimiter) Process(ctx *Context) Verdict {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.Clock()
	if !r.last.IsZero() {
		r.tokens += now.Sub(r.last).Seconds() * r.refillRate
		if r.tokens > r.capacity {
			r.tokens = r.capacity
		}
	}
	r.last = now
	if r.tokens >= 1 {
		r.tokens--
		return Forward
	}
	return Drop
}

// --- IDS element ---

// IDSElement runs a signature engine inline; block rules drop, alerts
// stream to the callback. The element is per device, the engine is
// not: it is immutable, and the platform hands every device of a SKU
// the same one. Per-device counts are the pipeline's element stats.
type IDSElement struct {
	Engine *ids.Engine
	// OnAlert receives every alert; may be nil.
	OnAlert func(ids.Alert)
}

// Name implements Element.
func (e *IDSElement) Name() string { return "ids" }

// Process implements Element.
func (e *IDSElement) Process(ctx *Context) Verdict {
	blocked, alerts := e.Engine.Verdict(ctx.Packet)
	if e.OnAlert != nil {
		for _, a := range alerts {
			e.OnAlert(a)
		}
	}
	if blocked {
		return Drop
	}
	return Forward
}

// --- Stateful firewall ---

// StatefulFirewall permits inbound traffic only on flows the protected
// device initiated (plus explicitly allowed inbound ports) — the
// connection-state policy of §3.1's stateful-firewall example.
//
// The connection table holds work in flight, not history: a flow is
// forgotten when TCP tears it down (an RST, or the ACK after both
// sides' FINs), the table remembers at most conntrackCap flows and
// forgets the oldest beyond that (counted,
// iotsec_mbox_conntrack_evicted_total), and a flow whose device-side
// port is open to the world anyway is never tracked — state could not
// change its verdict. A forgotten flow is re-learned from the device's
// next segment; until then inbound segments on it are dropped.
type StatefulFirewall struct {
	mu sync.Mutex
	// flows maps each tracked flow (direction-independent) to which
	// sides have sent a FIN.
	flows *resilience.Recent[packet.Flow, uint8]
	// AllowedInbound lists destination ports open to the world. Set at
	// construction; Process reads it without the lock.
	AllowedInbound map[uint16]bool
}

// conntrackCap bounds one firewall's connection table. A device with
// more than a few thousand connections of its own in flight is not an
// IoT device behaving normally, and the flows that never close (UDP,
// half-open TCP) would otherwise accumulate for as long as the posture
// stands.
const conntrackCap = 4096

// FIN bookkeeping per tracked flow.
const (
	finFromDevice uint8 = 1 << iota
	finToDevice
	finBoth = finFromDevice | finToDevice
)

// NewStatefulFirewall builds the firewall with the given open ports.
func NewStatefulFirewall(openPorts ...uint16) *StatefulFirewall {
	open := make(map[uint16]bool, len(openPorts))
	for _, p := range openPorts {
		open[p] = true
	}
	return &StatefulFirewall{
		flows:          resilience.NewRecent[packet.Flow, uint8](conntrackCap),
		AllowedInbound: open,
	}
}

// Name implements Element.
func (f *StatefulFirewall) Name() string { return "stateful-fw" }

// Process implements Element.
func (f *StatefulFirewall) Process(ctx *Context) Verdict {
	flow, ok := ctx.Packet.TransportFlow()
	if !ok {
		return Forward // non-transport (ARP etc.) passes
	}
	tcp := ctx.Packet.TCP()
	var srcPort, dstPort uint16
	if tcp != nil {
		srcPort, dstPort = tcp.SrcPort, tcp.DstPort
	} else if u := ctx.Packet.UDP(); u != nil {
		srcPort, dstPort = u.SrcPort, u.DstPort
	}
	devicePort, finBit := dstPort, finToDevice
	if ctx.Dir == FromDevice {
		devicePort, finBit = srcPort, finFromDevice
	}
	if f.AllowedInbound[devicePort] {
		// Outbound always passes and inbound to an open port always
		// passes: nothing to remember about this flow.
		return Forward
	}
	key := flow.Canonical()
	f.mu.Lock()
	defer f.mu.Unlock()
	fins, known := f.flows.Get(key)
	if !known {
		if ctx.Dir == ToDevice {
			return Drop // not initiated outbound, or forgotten since
		}
		if f.flows.Put(key, 0) {
			mConntrackEvicted.Inc()
		}
	}
	if tcp != nil {
		switch {
		case tcp.Flags.Has(packet.TCPRst), fins == finBoth:
			// The reset, or the ACK answering the second FIN, is the
			// connection's last segment.
			f.flows.Delete(key)
		case tcp.Flags.Has(packet.TCPFin):
			f.flows.Put(key, fins|finBit)
		}
	}
	return Forward
}

// --- DNS guard ---

// DNSGuard neutralizes the open-resolver flaw from outside the device:
// inbound DNS queries are dropped unless the source is whitelisted,
// and (belt and braces) outbound DNS responses above the amplification
// cap are dropped too.
type DNSGuard struct {
	// AllowedClients may query the device's resolver.
	AllowedClients map[packet.IPv4Address]bool
	// MaxResponseBytes caps outbound DNS responses (0 = no cap).
	MaxResponseBytes int

	droppedQueries   uint64
	droppedResponses uint64
	mu               sync.Mutex
}

// Name implements Element.
func (g *DNSGuard) Name() string { return "dns-guard" }

// Process implements Element.
func (g *DNSGuard) Process(ctx *Context) Verdict {
	udp := ctx.Packet.UDP()
	if udp == nil {
		return Forward
	}
	switch ctx.Dir {
	case ToDevice:
		if udp.DstPort != 53 {
			return Forward
		}
		ip := ctx.Packet.IPv4()
		if ip != nil && g.AllowedClients[ip.SrcIP] {
			return Forward
		}
		g.mu.Lock()
		g.droppedQueries++
		g.mu.Unlock()
		return Drop
	case FromDevice:
		if udp.SrcPort != 53 || g.MaxResponseBytes <= 0 {
			return Forward
		}
		if len(udp.LayerPayload()) > g.MaxResponseBytes {
			g.mu.Lock()
			g.droppedResponses++
			g.mu.Unlock()
			return Drop
		}
	}
	return Forward
}

// Dropped reports blocked queries and responses.
func (g *DNSGuard) Dropped() (queries, responses uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.droppedQueries, g.droppedResponses
}

// --- Anomaly element ---

// AnomalyElement feeds device-bound management traffic into a
// behavioral profile and reports deviations; optionally drops frames
// scoring at or above BlockScore.
type AnomalyElement struct {
	Profile *ids.Profile
	// OnAnomaly receives detections; may be nil.
	OnAnomaly func(ids.Anomaly)
	// BlockScore drops frames whose worst anomaly scores >= this
	// (0 = never block).
	BlockScore float64
}

// Name implements Element.
func (e *AnomalyElement) Name() string { return "anomaly" }

// Process implements Element.
func (e *AnomalyElement) Process(ctx *Context) Verdict {
	if ctx.Dir != ToDevice {
		return Forward
	}
	tcp := ctx.Packet.TCP()
	ip := ctx.Packet.IPv4()
	if tcp == nil || ip == nil || len(tcp.LayerPayload()) == 0 {
		return Forward
	}
	cmd := commandOf(tcp.LayerPayload())
	anomalies := e.Profile.ObserveMessage(ip.SrcIP.String(), tcp.DstPort, cmd, time.Now())
	worst := 0.0
	for _, a := range anomalies {
		if e.OnAnomaly != nil {
			e.OnAnomaly(a)
		}
		if a.Score > worst {
			worst = a.Score
		}
	}
	if e.BlockScore > 0 && worst >= e.BlockScore {
		return Drop
	}
	return Forward
}

// commandOf extracts the command token from a management payload
// ("IOT/1 CMD ..."), or a generic tag.
func commandOf(payload []byte) string {
	s := string(payload)
	var proto, cmd string
	if n, _ := fmt.Sscanf(s, "%s %s", &proto, &cmd); n == 2 && proto == "IOT/1" {
		return cmd
	}
	return "<raw>"
}
