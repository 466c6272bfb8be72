package ids

import (
	"math/rand"
	"sort"
	"testing"

	"iotsec/internal/packet"
)

// naiveMatch is the pre-optimization matcher: every rule verified
// against every packet, no prefilter, no buckets. The staged engine
// must raise exactly the same alert set.
func naiveMatch(rules []*Rule, p *packet.Packet) []int {
	ip := p.IPv4()
	if ip == nil {
		return nil
	}
	v := pktView{ip: ip, payload: p.ApplicationPayload()}
	if t := p.TCP(); t != nil {
		v.hasTCP, v.srcPort, v.dstPort = true, t.SrcPort, t.DstPort
	} else if u := p.UDP(); u != nil {
		v.hasUDP, v.srcPort, v.dstPort = true, u.SrcPort, u.DstPort
	}
	var sids []int
	for _, r := range rules {
		if !r.Dsize.Matches(len(v.payload)) {
			continue
		}
		if !naiveContentsMatch(r, v.payload) {
			continue
		}
		if !headerMatch(r, &v) {
			continue
		}
		sids = append(sids, r.SID)
	}
	return sids
}

// naiveContentsMatch is ruleContentsMatch over the reference substring
// matcher, so the oracle shares no search code with the engine.
func naiveContentsMatch(r *Rule, payload []byte) bool {
	for _, c := range r.Contents {
		if containsNaive(c.region(payload), c.Pattern) == c.Negated {
			return false
		}
	}
	return true
}

var stagedPatterns = [][]byte{
	[]byte("admin"), []byte("GET /"), []byte("backdoor"),
	[]byte("TEST"), []byte("xyzzy"), []byte("pass"),
	[]byte("ADMIN"), // uppercase twin to stress nocase
}

func randRule(rng *rand.Rand, sid int) *Rule {
	r := &Rule{Action: ActionAlert, SID: sid, Msg: "r"}
	if rng.Intn(4) == 0 {
		r.Action = ActionBlock
	}
	switch rng.Intn(3) {
	case 0:
		r.Proto = ProtoTCP
	case 1:
		r.Proto = ProtoUDP
	default:
		r.Proto = ProtoIP
	}
	randAddr := func() AddrSpec {
		switch rng.Intn(3) {
		case 0:
			return AddrSpec{Any: true}
		case 1:
			return AddrSpec{IP: packet.IPv4Address{10, 0, byte(rng.Intn(2)), 0}, Prefix: 24}
		default:
			return AddrSpec{IP: packet.IPv4Address{10, 0, byte(rng.Intn(2)), byte(rng.Intn(4))}}
		}
	}
	randPort := func() PortSpec {
		if rng.Intn(2) == 0 {
			return PortSpec{Any: true}
		}
		return PortSpec{Port: []uint16{80, 443, 53, 1234}[rng.Intn(4)]}
	}
	r.SrcIP, r.DstIP = randAddr(), randAddr()
	r.SrcPort, r.DstPort = randPort(), randPort()
	r.Bidir = rng.Intn(5) == 0
	nContents := rng.Intn(3)
	for i := 0; i < nContents; i++ {
		c := Content{Pattern: stagedPatterns[rng.Intn(len(stagedPatterns))]}
		if rng.Intn(4) == 0 {
			c.NoCase = true
			// nocase patterns are stored lowercased, as ParseRule does.
			lowered := make([]byte, len(c.Pattern))
			for j, ch := range c.Pattern {
				if ch >= 'A' && ch <= 'Z' {
					ch += 'a' - 'A'
				}
				lowered[j] = ch
			}
			c.Pattern = lowered
		}
		if rng.Intn(4) == 0 {
			c.Negated = true
		}
		if rng.Intn(4) == 0 {
			c.Offset = rng.Intn(8)
		}
		if rng.Intn(4) == 0 {
			c.Depth = 4 + rng.Intn(20)
		}
		r.Contents = append(r.Contents, c)
	}
	if rng.Intn(4) == 0 {
		r.Dsize = Dsize{Op: []DsizeOp{DsizeEq, DsizeGT, DsizeLT}[rng.Intn(3)], N: rng.Intn(40)}
	}
	return r
}

func randStagedPacket(t testing.TB, rng *rand.Rand) *packet.Packet {
	t.Helper()
	srcIP := packet.IPv4Address{10, 0, byte(rng.Intn(2)), byte(rng.Intn(4))}
	dstIP := packet.IPv4Address{10, 0, byte(rng.Intn(2)), byte(rng.Intn(4))}
	// Payload stitched from rule patterns (varying case) and noise so
	// prefilter hits, near-hits and misses all occur.
	var payload []byte
	for i := rng.Intn(4); i > 0; i-- {
		pat := stagedPatterns[rng.Intn(len(stagedPatterns))]
		for _, ch := range pat {
			if rng.Intn(6) == 0 && ch >= 'a' && ch <= 'z' {
				ch -= 'a' - 'A'
			}
			payload = append(payload, ch)
		}
		for j := rng.Intn(6); j > 0; j-- {
			payload = append(payload, byte(rng.Intn(256)))
		}
	}
	b := packet.NewSerializeBuffer()
	var err error
	ports := []uint16{80, 443, 53, 1234, 9999}
	src, dst := ports[rng.Intn(len(ports))], ports[rng.Intn(len(ports))]
	switch rng.Intn(10) {
	case 0: // bare IP with unknown protocol: no transport ports at all
		err = packet.SerializeLayers(b,
			&packet.IPv4{SrcIP: srcIP, DstIP: dstIP, Protocol: packet.IPProtocol(0xfd)},
			packet.NewPayload(payload),
		)
	case 1, 2, 3:
		err = packet.SerializeLayers(b,
			&packet.IPv4{SrcIP: srcIP, DstIP: dstIP, Protocol: packet.IPProtocolUDP},
			&packet.UDP{SrcPort: src, DstPort: dst},
			packet.NewPayload(payload),
		)
	default:
		tcp := &packet.TCP{SrcPort: src, DstPort: dst, Flags: packet.TCPAck}
		tcp.SetNetworkForChecksum(srcIP, dstIP)
		err = packet.SerializeLayers(b,
			&packet.IPv4{SrcIP: srcIP, DstIP: dstIP, Protocol: packet.IPProtocolTCP},
			tcp,
			packet.NewPayload(payload),
		)
	}
	if err != nil {
		t.Fatalf("serialize: %v", err)
	}
	return packet.Decode(b.Bytes(), packet.LayerTypeIPv4)
}

// TestStagedMatchEquivalence: the staged engine (AC prefilter +
// proto/port buckets) must alert on exactly the rules the naive
// all-rules matcher selects, over randomized rulesets and packets.
func TestStagedMatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1d5))
	for trial := 0; trial < 20; trial++ {
		nRules := 1 + rng.Intn(50)
		rules := make([]*Rule, nRules)
		for i := range rules {
			rules[i] = randRule(rng, 1000+i)
		}
		e := NewEngine(rules)
		for pi := 0; pi < 400; pi++ {
			p := randStagedPacket(t, rng)
			want := naiveMatch(rules, p)
			var got []int
			for _, a := range e.Match(p) {
				got = append(got, a.SID)
			}
			sort.Ints(want)
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("trial %d packet %d: staged raised %v, naive %v", trial, pi, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d packet %d: staged raised %v, naive %v", trial, pi, got, want)
				}
			}
		}
	}
}

// TestStagedMatchParsedRules runs the equivalence over rules built by
// the real parser, covering the dialect end to end.
func TestStagedMatchParsedRules(t *testing.T) {
	lines := []string{
		`alert tcp any any -> any 80 (msg:"admin probe"; content:"admin"; nocase; sid:1;)`,
		`block tcp any any -> 10.0.0.0/24 any (msg:"backdoor"; content:"backdoor"; sid:2;)`,
		`alert udp any 53 <> any any (msg:"dns chatter"; sid:3;)`,
		`alert ip any any -> any any (msg:"big"; dsize:>64; sid:4;)`,
		`alert tcp any any -> any 1234 (msg:"no test"; content:!"TEST"; sid:5;)`,
		`alert tcp any any -> any any (msg:"get root"; content:"GET /"; content:"pass"; sid:6;)`,
	}
	var rules []*Rule
	for _, l := range lines {
		r, err := ParseRule(l)
		if err != nil {
			t.Fatalf("parse %q: %v", l, err)
		}
		rules = append(rules, r)
	}
	e := NewEngine(rules)
	rng := rand.New(rand.NewSource(99))
	for pi := 0; pi < 2000; pi++ {
		p := randStagedPacket(t, rng)
		want := naiveMatch(rules, p)
		var got []int
		for _, a := range e.Match(p) {
			got = append(got, a.SID)
		}
		sort.Ints(want)
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("packet %d: staged %v, naive %v (%s)", pi, got, want, p)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("packet %d: staged %v, naive %v (%s)", pi, got, want, p)
			}
		}
	}
}
