package ids

import (
	"bytes"
	"sync"
	"time"

	"iotsec/internal/packet"
)

// Alert is one rule match against a packet.
type Alert struct {
	Rule   *Rule
	Msg    string
	SID    int
	Action Action
	SrcIP  packet.IPv4Address
	DstIP  packet.IPv4Address
	When   time.Time
}

// Engine evaluates a ruleset against decoded packets. Immutable after
// NewEngine, so one engine may serve many goroutines and many µmboxes:
// the platform compiles one per SKU rule-set generation and every
// device of the SKU points at it. Match writes nothing to the engine
// but the pooled scratch; scan and match counts live in the
// iotsec_ids_* metrics, not here.
//
// Matching is staged: content rules go through the Aho-Corasick
// prefilter (one pass over the payload regardless of ruleset size), and
// contentless rules are pre-grouped by proto/port at compile time so a
// packet only visits the buckets its own headers select — not the whole
// ruleset.
type Engine struct {
	rules []*Rule
	// ac indexes every content pattern across all rules; patIndex
	// maps automaton pattern index → (rule index, content) pair.
	ac       *ahoCorasick
	patIndex []patRef
	// rulePositives[i] is the number of positive contents of rules[i]:
	// a rule is a prefilter candidate when all of them were seen.
	rulePositives []int32
	// contentless rules, bucketed by proto/port (see ruleBuckets).
	tcpRules, udpRules, ipRules ruleBuckets
	// noCase is true when any compiled content is case-insensitive,
	// requiring a second scan over the lowercased payload.
	noCase bool

	scratchPool sync.Pool
}

type patRef struct {
	rule    int32 // index into Engine.rules
	content int
}

// ruleBuckets groups contentless rules of one protocol by their
// concrete port, so Match visits only the buckets the packet's own
// ports select. Bidirectional rules and rules with no concrete port go
// in any (a bidir rule's concrete port may face either direction).
type ruleBuckets struct {
	byDst map[uint16][]*Rule
	bySrc map[uint16][]*Rule
	any   []*Rule
}

func (b *ruleBuckets) add(r *Rule) {
	switch {
	case r.Bidir:
		b.any = append(b.any, r)
	case !r.DstPort.Any:
		if b.byDst == nil {
			b.byDst = make(map[uint16][]*Rule)
		}
		b.byDst[r.DstPort.Port] = append(b.byDst[r.DstPort.Port], r)
	case !r.SrcPort.Any:
		if b.bySrc == nil {
			b.bySrc = make(map[uint16][]*Rule)
		}
		b.bySrc[r.SrcPort.Port] = append(b.bySrc[r.SrcPort.Port], r)
	default:
		b.any = append(b.any, r)
	}
}

// matchScratch is the per-Match working set, pooled and sparsely reset
// so a packet's cost scales with its own hits, not the ruleset size.
type matchScratch struct {
	patSeen     []bool
	ruleHits    []int32
	touchedPats []int32
	touchedRul  []int32
}

func (s *matchScratch) reset() {
	for _, i := range s.touchedPats {
		s.patSeen[i] = false
	}
	for _, i := range s.touchedRul {
		s.ruleHits[i] = 0
	}
	s.touchedPats = s.touchedPats[:0]
	s.touchedRul = s.touchedRul[:0]
}

// NewEngine compiles the rules: each rule is staged into the prefilter
// or a proto/port bucket by addRule, then the shared Aho-Corasick
// automaton is built once over all positive contents. Positive contents
// feed the prefilter (a content matching within a region necessarily
// matches somewhere, so "hit anywhere" is a sound prefilter); negated
// contents and region/dsize constraints are verified per candidate.
func NewEngine(rules []*Rule) *Engine {
	mEngineBuilds.Inc()
	e := &Engine{
		rules:         rules,
		rulePositives: make([]int32, len(rules)),
	}
	var patterns [][]byte
	for ri, r := range rules {
		patterns = e.addRule(int32(ri), r, patterns)
	}
	e.ac = newAhoCorasick(patterns)
	nPats, nRules := len(e.patIndex), len(e.rules)
	e.scratchPool.New = func() any {
		return &matchScratch{
			patSeen:  make([]bool, nPats),
			ruleHits: make([]int32, nRules),
		}
	}
	return e
}

// addRule stages one rule: positive contents are appended to the
// pattern list for the prefilter; contentless rules land in the
// proto/port bucket their header select.
func (e *Engine) addRule(ri int32, r *Rule, patterns [][]byte) [][]byte {
	positives := int32(0)
	for ci, c := range r.Contents {
		if c.Negated {
			continue
		}
		positives++
		patterns = append(patterns, c.Pattern)
		e.patIndex = append(e.patIndex, patRef{rule: ri, content: ci})
		if c.NoCase {
			e.noCase = true
		}
	}
	e.rulePositives[ri] = positives
	if positives == 0 {
		// Only negated contents (or none): header buckets select it.
		switch r.Proto {
		case ProtoTCP:
			e.tcpRules.add(r)
		case ProtoUDP:
			e.udpRules.add(r)
		default:
			e.ipRules.add(r)
		}
	}
	return patterns
}

// region is the part of the payload the content's offset/depth select,
// lowercased for a nocase content (whose pattern is stored lowercased).
func (c Content) region(payload []byte) []byte {
	region := payload
	if c.Offset > 0 {
		if c.Offset >= len(region) {
			region = nil
		} else {
			region = region[c.Offset:]
		}
	}
	if c.Depth > 0 && c.Depth < len(region) {
		region = region[:c.Depth]
	}
	if c.NoCase {
		region = bytes.ToLower(region)
	}
	return region
}

// contentMatches verifies one content predicate precisely against the
// payload (region, case and negation).
func contentMatches(c Content, payload []byte) bool {
	return bytes.Contains(c.region(payload), c.Pattern) != c.Negated
}

// ruleContentsMatch verifies every content predicate of a rule.
func ruleContentsMatch(r *Rule, payload []byte) bool {
	for _, c := range r.Contents {
		if !contentMatches(c, payload) {
			return false
		}
	}
	return true
}

// RuleCount reports the compiled ruleset size.
func (e *Engine) RuleCount() int { return len(e.rules) }

// pktView carries the packet header fields Match extracts once, so
// per-candidate verification does not re-walk the layer list.
type pktView struct {
	ip               *packet.IPv4
	payload          []byte
	srcPort, dstPort uint16
	hasTCP, hasUDP   bool
}

// Match evaluates the packet, returning all alerts (block rules first
// is NOT guaranteed; callers wanting a verdict use Verdict).
func (e *Engine) Match(p *packet.Packet) []Alert {
	mPacketsScanned.Inc()
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

	var alerts []Alert

	// Stage 1: content rules via the prefilter. One automaton pass
	// finds every candidate whose positive contents all appear.
	if len(v.payload) > 0 && len(e.patIndex) > 0 {
		s := e.scratchPool.Get().(*matchScratch)
		e.scanInto(v.payload, s)
		if e.noCase {
			// nocase contents are stored lowercased; scan a lowered
			// copy too. bytes.ToLower (not an ASCII fold) keeps the
			// prefilter's candidate set identical to what the precise
			// contentMatches pass lowercases — only engines that
			// compiled a nocase content pay this copy.
			e.scanInto(bytes.ToLower(v.payload), s)
		}
		for _, ri := range s.touchedRul {
			if s.ruleHits[ri] >= e.rulePositives[ri] {
				alerts = e.consider(e.rules[ri], &v, alerts)
			}
		}
		s.reset()
		e.scratchPool.Put(s)
	}

	// Stage 2: contentless rules from the buckets the packet's own
	// headers select.
	alerts = e.considerBuckets(&e.ipRules, &v, alerts)
	if v.hasTCP {
		alerts = e.considerBuckets(&e.tcpRules, &v, alerts)
	} else if v.hasUDP {
		alerts = e.considerBuckets(&e.udpRules, &v, alerts)
	}
	return alerts
}

func (e *Engine) considerBuckets(b *ruleBuckets, v *pktView, alerts []Alert) []Alert {
	if b.byDst != nil {
		for _, r := range b.byDst[v.dstPort] {
			alerts = e.consider(r, v, alerts)
		}
	}
	if b.bySrc != nil {
		for _, r := range b.bySrc[v.srcPort] {
			alerts = e.consider(r, v, alerts)
		}
	}
	for _, r := range b.any {
		alerts = e.consider(r, v, alerts)
	}
	return alerts
}

// consider verifies one candidate rule precisely and appends an alert
// on a match.
func (e *Engine) consider(r *Rule, v *pktView, alerts []Alert) []Alert {
	if !r.Dsize.Matches(len(v.payload)) {
		return alerts
	}
	if !ruleContentsMatch(r, v.payload) {
		return alerts
	}
	if !headerMatch(r, v) {
		return alerts
	}
	mRuleMatches.Inc()
	return append(alerts, Alert{
		Rule: r, Msg: r.Msg, SID: r.SID, Action: r.Action,
		SrcIP: v.ip.SrcIP, DstIP: v.ip.DstIP, When: time.Now(),
	})
}

// headerMatch applies the non-content predicates.
func headerMatch(r *Rule, v *pktView) bool {
	var srcPort, dstPort uint16
	switch r.Proto {
	case ProtoTCP:
		if !v.hasTCP {
			return false
		}
		srcPort, dstPort = v.srcPort, v.dstPort
	case ProtoUDP:
		if !v.hasUDP {
			return false
		}
		srcPort, dstPort = v.srcPort, v.dstPort
	case ProtoIP:
		srcPort, dstPort = v.srcPort, v.dstPort
	}
	forward := r.SrcIP.Matches(v.ip.SrcIP) && r.SrcPort.Matches(srcPort) &&
		r.DstIP.Matches(v.ip.DstIP) && r.DstPort.Matches(dstPort)
	if forward {
		return true
	}
	if r.Bidir {
		return r.SrcIP.Matches(v.ip.DstIP) && r.SrcPort.Matches(dstPort) &&
			r.DstIP.Matches(v.ip.SrcIP) && r.DstPort.Matches(srcPort)
	}
	return false
}

// Verdict reduces the alerts for a packet to a forwarding decision:
// any block rule blocks; pass rules are advisory here.
func (e *Engine) Verdict(p *packet.Packet) (blocked bool, alerts []Alert) {
	alerts = e.Match(p)
	for _, a := range alerts {
		if a.Action == ActionBlock {
			mBlocks.Inc()
			return true, alerts
		}
	}
	return false, alerts
}
