package openflow

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iotsec/internal/packet"
)

// FlowEntry is one installed rule: a classifier, a priority, the
// actions to apply, and optional expiry.
type FlowEntry struct {
	Match    Match
	Priority uint16
	Actions  []Action
	// IdleTimeout evicts the entry after this long without a hit
	// (zero = never).
	IdleTimeout time.Duration
	// HardTimeout evicts the entry this long after installation
	// (zero = never).
	HardTimeout time.Duration
	// Cookie is an opaque controller tag used for bulk deletion.
	Cookie uint64

	installed time.Time
	lastHit   time.Time
	packets   uint64
	bytes     uint64
}

// ClassCookie builds a per-MAC cookie in one rule class: the class tag
// in the top byte, then the MAC. Each owner of flow entries (tunnel
// pins, profile rules, quarantine drops) takes a tag of its own, so it
// can delete-by-cookie exactly what it installed for one MAC.
func ClassCookie(tag uint8, mac packet.MACAddress) uint64 {
	c := uint64(tag)
	for _, b := range mac {
		c = c<<8 | uint64(b)
	}
	return c
}

// Stats reports the entry's hit counters.
func (e *FlowEntry) Stats() (packets, bytes uint64) { return e.packets, e.bytes }

// String summarizes the rule.
func (e *FlowEntry) String() string {
	acts := make([]string, len(e.Actions))
	for i, a := range e.Actions {
		acts[i] = a.String()
	}
	actStr := "drop"
	if len(acts) > 0 {
		actStr = strings.Join(acts, ",")
	}
	return fmt.Sprintf("prio=%d %s -> %s", e.Priority, e.Match, actStr)
}

// flowNode is the stored form of an entry. The embedded FlowEntry spec
// is immutable after insert; the hit counters live in atomics so Lookup
// can update them while holding only the read lock. Nodes are always
// handled by pointer (the atomics make them non-copyable).
type flowNode struct {
	FlowEntry
	// seq is the install sequence number: the priority tie-break goes
	// to the lower (earlier) seq. A replacement inherits its
	// predecessor's seq so it keeps its slot in the ordering.
	seq uint64
	// idx is the node's position in FlowTable.nodes, maintained across
	// compaction so Insert can replace in place without a scan.
	idx int

	hitPackets atomic.Uint64
	hitBytes   atomic.Uint64
	// lastHitNS is the unix-nano time of the last hit. Only updated
	// for entries with an idle timeout — everything else would pay a
	// time.Now() per packet for a value nobody reads.
	lastHitNS atomic.Int64
}

// snapshot copies the spec and folds the live counters into the plain
// FlowEntry view handed to callers.
func (n *flowNode) snapshot() FlowEntry {
	e := n.FlowEntry
	e.packets = n.hitPackets.Load()
	e.bytes = n.hitBytes.Load()
	e.lastHit = time.Unix(0, n.lastHitNS.Load())
	return e
}

// tupleID identifies one tuple-space class: all matches sharing a
// wildcard set and prefix-mask pair live in the same tuple and can be
// looked up with a single hash probe. Masks are normalized to zero when
// the corresponding field is wildcarded so equivalent matches collapse
// into one tuple.
type tupleID struct {
	wildcards uint32
	srcMask   uint8
	dstMask   uint8
}

func clampMask(m uint8) uint8 {
	if m > 32 {
		return 32
	}
	return m
}

func tupleIDFor(m Match) tupleID {
	id := tupleID{wildcards: m.Wildcards & WAll}
	if id.wildcards&WSrcIP == 0 {
		id.srcMask = clampMask(m.SrcMask)
	}
	if id.wildcards&WDstIP == 0 {
		id.dstMask = clampMask(m.DstMask)
	}
	return id
}

// tupleKey is the exact-match hash key within one tuple: every
// non-wildcarded field, with IPs masked to the tuple's prefix length.
// Under a fixed tupleID the key fully determines the match predicate,
// so a hash hit needs no verify pass.
type tupleKey struct {
	inPort    uint16
	ethSrc    packet.MACAddress
	ethDst    packet.MACAddress
	etherType packet.EtherType
	srcIP     packet.IPv4Address
	dstIP     packet.IPv4Address
	proto     packet.IPProtocol
	tpSrc     uint16
	tpDst     uint16
}

func maskIP(ip packet.IPv4Address, maskLen uint8) packet.IPv4Address {
	if maskLen >= 32 {
		return ip
	}
	if maskLen == 0 {
		return packet.IPv4Address{}
	}
	v := uint32(ip[0])<<24 | uint32(ip[1])<<16 | uint32(ip[2])<<8 | uint32(ip[3])
	v &= ^uint32(0) << (32 - maskLen)
	return packet.IPv4Address{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// tuple is one tuple-space class: a hash from masked field values to
// the entries with exactly that predicate, bucket-ordered by
// (priority desc, seq asc) so bucket[0] is the class winner.
type tuple struct {
	id      tupleID
	buckets map[tupleKey][]*flowNode
	// Layer requirements: a packet lacking a required layer cannot
	// match any entry in this tuple (mirrors Match.Matches, which
	// fails concrete fields against absent layers).
	needEth   bool
	needIP    bool
	needPorts bool
}

func newTuple(id tupleID) *tuple {
	const wEth = WEthSrc | WEthDst | WEtherType
	const wIP = WSrcIP | WDstIP | WProto
	const wTp = WTpSrc | WTpDst
	return &tuple{
		id:        id,
		buckets:   make(map[tupleKey][]*flowNode),
		needEth:   id.wildcards&wEth != wEth,
		needIP:    id.wildcards&wIP != wIP,
		needPorts: id.wildcards&wTp != wTp,
	}
}

// keyForMatch builds the hash key for an entry's match under this
// tuple's masks.
func (tp *tuple) keyForMatch(m Match) tupleKey {
	var k tupleKey
	w := tp.id.wildcards
	if w&WInPort == 0 {
		k.inPort = m.InPort
	}
	if w&WEthSrc == 0 {
		k.ethSrc = m.EthSrc
	}
	if w&WEthDst == 0 {
		k.ethDst = m.EthDst
	}
	if w&WEtherType == 0 {
		k.etherType = m.EtherType
	}
	if w&WSrcIP == 0 {
		k.srcIP = maskIP(m.SrcIP, tp.id.srcMask)
	}
	if w&WDstIP == 0 {
		k.dstIP = maskIP(m.DstIP, tp.id.dstMask)
	}
	if w&WProto == 0 {
		k.proto = m.Proto
	}
	if w&WTpSrc == 0 {
		k.tpSrc = m.TpSrc
	}
	if w&WTpDst == 0 {
		k.tpDst = m.TpDst
	}
	return k
}

// pktFields is the per-lookup flattened view of a packet: every field
// the index can key on, extracted once instead of once per entry.
type pktFields struct {
	inPort    uint16
	ethSrc    packet.MACAddress
	ethDst    packet.MACAddress
	etherType packet.EtherType
	srcIP     packet.IPv4Address
	dstIP     packet.IPv4Address
	proto     packet.IPProtocol
	tpSrc     uint16
	tpDst     uint16
	hasEth    bool
	hasIP     bool
	hasPorts  bool
}

func extractFields(p *packet.Packet, inPort uint16) pktFields {
	f := pktFields{inPort: inPort}
	if eth := p.Ethernet(); eth != nil {
		f.hasEth = true
		f.ethSrc, f.ethDst, f.etherType = eth.SrcMAC, eth.DstMAC, eth.EtherType
	}
	if ip := p.IPv4(); ip != nil {
		f.hasIP = true
		f.srcIP, f.dstIP, f.proto = ip.SrcIP, ip.DstIP, ip.Protocol
	}
	if t := p.TCP(); t != nil {
		f.hasPorts = true
		f.tpSrc, f.tpDst = t.SrcPort, t.DstPort
	} else if u := p.UDP(); u != nil {
		f.hasPorts = true
		f.tpSrc, f.tpDst = u.SrcPort, u.DstPort
	}
	return f
}

// keyForPacket builds the packet's hash key under this tuple, or
// ok=false when the packet lacks a layer the tuple's concrete fields
// require.
func (tp *tuple) keyForPacket(f *pktFields) (tupleKey, bool) {
	if (tp.needEth && !f.hasEth) || (tp.needIP && !f.hasIP) || (tp.needPorts && !f.hasPorts) {
		return tupleKey{}, false
	}
	var k tupleKey
	w := tp.id.wildcards
	if w&WInPort == 0 {
		k.inPort = f.inPort
	}
	if w&WEthSrc == 0 {
		k.ethSrc = f.ethSrc
	}
	if w&WEthDst == 0 {
		k.ethDst = f.ethDst
	}
	if w&WEtherType == 0 {
		k.etherType = f.etherType
	}
	if w&WSrcIP == 0 {
		k.srcIP = maskIP(f.srcIP, tp.id.srcMask)
	}
	if w&WDstIP == 0 {
		k.dstIP = maskIP(f.dstIP, tp.id.dstMask)
	}
	if w&WProto == 0 {
		k.proto = f.proto
	}
	if w&WTpSrc == 0 {
		k.tpSrc = f.tpSrc
	}
	if w&WTpDst == 0 {
		k.tpDst = f.tpDst
	}
	return k, true
}

// FlowTable is a priority-ordered, thread-safe rule table. Lookup
// returns the highest-priority matching entry; ties break toward the
// earlier-installed entry.
//
// Entries are indexed tuple-space style: one hash table per distinct
// (wildcard set, prefix masks) class, so a lookup costs one probe per
// class — a handful — instead of a scan over every entry. Lookups run
// under the read lock; hit counters are atomics so concurrent lookups
// never serialize on the write lock.
type FlowTable struct {
	mu     sync.RWMutex
	nodes  []*flowNode // install order; nodes[i].idx == i
	tuples []*tuple
	byID   map[tupleID]*tuple
	// installSeq numbers inserts for the priority tie-break.
	installSeq uint64
	// gen is the structure generation: bumped on every insert, delete
	// and expiry (not on hits). Entries() uses it to cache its sorted
	// view; external callers can use Generation() the same way.
	gen atomic.Uint64
	// sorted caches the (priority desc, seq asc) node order as of
	// sortGen; rebuilt lazily when gen moves.
	sorted  []*flowNode
	sortGen uint64

	missCount atomic.Uint64
}

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable {
	return &FlowTable{byID: make(map[tupleID]*tuple)}
}

// Insert installs the entry, replacing any existing entry with an
// identical match and priority. Per OpenFlow modify semantics a
// replacement preserves the hit counters of the entry it displaces;
// timeouts restart from the replacement.
func (t *FlowTable) Insert(e FlowEntry) {
	now := time.Now()
	e.installed = now
	e.lastHit = now
	e.packets, e.bytes = 0, 0

	t.mu.Lock()
	defer t.mu.Unlock()

	id := tupleIDFor(e.Match)
	tp := t.byID[id]
	if tp == nil {
		tp = newTuple(id)
		t.byID[id] = tp
		t.tuples = append(t.tuples, tp)
	}
	key := tp.keyForMatch(e.Match)
	bucket := tp.buckets[key]

	n := &flowNode{FlowEntry: e}
	n.lastHitNS.Store(now.UnixNano())

	for i, old := range bucket {
		if old.Priority == e.Priority && old.Match == e.Match {
			n.seq = old.seq
			n.idx = old.idx
			n.hitPackets.Store(old.hitPackets.Load())
			n.hitBytes.Store(old.hitBytes.Load())
			bucket[i] = n
			t.nodes[n.idx] = n
			t.gen.Add(1)
			return
		}
	}

	n.seq = t.installSeq
	t.installSeq++
	n.idx = len(t.nodes)
	t.nodes = append(t.nodes, n)

	// Keep the bucket ordered (priority desc, seq asc): scan to the
	// first lower-priority node. seq grows monotonically, so appending
	// after equal priorities preserves the tie-break.
	pos := len(bucket)
	for i, x := range bucket {
		if x.Priority < n.Priority {
			pos = i
			break
		}
	}
	bucket = append(bucket, nil)
	copy(bucket[pos+1:], bucket[pos:])
	bucket[pos] = n
	tp.buckets[key] = bucket
	t.gen.Add(1)
}

// matchSubsumes reports whether every packet matching sub also matches
// the filter fields of f (used for OpenFlow-style delete filters: a
// filter with more wildcards deletes more entries).
func matchSubsumes(filter, sub Match) bool {
	if filter.Wildcards == WAll {
		return true
	}
	if filter.Wildcards&WInPort == 0 && (sub.Wildcards&WInPort != 0 || sub.InPort != filter.InPort) {
		return false
	}
	if filter.Wildcards&WEthSrc == 0 && (sub.Wildcards&WEthSrc != 0 || sub.EthSrc != filter.EthSrc) {
		return false
	}
	if filter.Wildcards&WEthDst == 0 && (sub.Wildcards&WEthDst != 0 || sub.EthDst != filter.EthDst) {
		return false
	}
	if filter.Wildcards&WEtherType == 0 && (sub.Wildcards&WEtherType != 0 || sub.EtherType != filter.EtherType) {
		return false
	}
	if filter.Wildcards&WSrcIP == 0 && (sub.Wildcards&WSrcIP != 0 || sub.SrcMask < filter.SrcMask || !prefixMatches(filter.SrcIP, sub.SrcIP, filter.SrcMask)) {
		return false
	}
	if filter.Wildcards&WDstIP == 0 && (sub.Wildcards&WDstIP != 0 || sub.DstMask < filter.DstMask || !prefixMatches(filter.DstIP, sub.DstIP, filter.DstMask)) {
		return false
	}
	if filter.Wildcards&WProto == 0 && (sub.Wildcards&WProto != 0 || sub.Proto != filter.Proto) {
		return false
	}
	if filter.Wildcards&WTpSrc == 0 && (sub.Wildcards&WTpSrc != 0 || sub.TpSrc != filter.TpSrc) {
		return false
	}
	if filter.Wildcards&WTpDst == 0 && (sub.Wildcards&WTpDst != 0 || sub.TpDst != filter.TpDst) {
		return false
	}
	return true
}

// removeFromBucketLocked unlinks the node from its tuple's hash bucket.
func (t *FlowTable) removeFromBucketLocked(n *flowNode) {
	tp := t.byID[tupleIDFor(n.Match)]
	if tp == nil {
		return
	}
	key := tp.keyForMatch(n.Match)
	b := tp.buckets[key]
	for i, x := range b {
		if x == n {
			copy(b[i:], b[i+1:])
			b[len(b)-1] = nil
			b = b[:len(b)-1]
			break
		}
	}
	if len(b) == 0 {
		delete(tp.buckets, key)
	} else {
		tp.buckets[key] = b
	}
}

// compactLocked filters t.nodes with the given predicate (true =
// remove), unlinking removed nodes from the index and niling the
// compacted tail so evicted entries are not pinned against GC.
func (t *FlowTable) compactLocked(remove func(*flowNode) bool) int {
	kept := t.nodes[:0]
	removed := 0
	for _, n := range t.nodes {
		if remove(n) {
			t.removeFromBucketLocked(n)
			removed++
		} else {
			n.idx = len(kept)
			kept = append(kept, n)
		}
	}
	for i := len(kept); i < len(t.nodes); i++ {
		t.nodes[i] = nil
	}
	t.nodes = kept
	if removed > 0 {
		t.gen.Add(1)
	}
	return removed
}

// Delete removes entries whose match is subsumed by the filter,
// returning how many were removed.
func (t *FlowTable) Delete(filter Match) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.compactLocked(func(n *flowNode) bool {
		return matchSubsumes(filter, n.Match)
	})
}

// DeleteByCookie removes entries tagged with the cookie.
func (t *FlowTable) DeleteByCookie(cookie uint64) int {
	if cookie == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.compactLocked(func(n *flowNode) bool {
		return n.Cookie == cookie
	})
}

// Lookup returns a copy of the highest-priority entry matching the
// packet, updating its counters. ok is false on a table miss. Lookups
// hold only the read lock, so concurrent lookups never wait on each
// other; counters are atomics.
func (t *FlowTable) Lookup(p *packet.Packet, inPort uint16, size int) (FlowEntry, bool) {
	f := extractFields(p, inPort)

	t.mu.RLock()
	var best *flowNode
	for _, tp := range t.tuples {
		if len(tp.buckets) == 0 {
			continue
		}
		key, ok := tp.keyForPacket(&f)
		if !ok {
			continue
		}
		b := tp.buckets[key]
		if len(b) == 0 {
			continue
		}
		n := b[0]
		if best == nil || n.Priority > best.Priority ||
			(n.Priority == best.Priority && n.seq < best.seq) {
			best = n
		}
	}
	if best == nil {
		t.mu.RUnlock()
		t.missCount.Add(1)
		return FlowEntry{}, false
	}
	best.hitPackets.Add(1)
	best.hitBytes.Add(uint64(size))
	if best.IdleTimeout > 0 {
		best.lastHitNS.Store(time.Now().UnixNano())
	}
	e := best.snapshot()
	t.mu.RUnlock()
	return e, true
}

// Expire removes entries whose idle or hard timeout has passed as of
// now, returning the expired entries (copies) so the switch can emit
// FLOW_REMOVED notifications.
func (t *FlowTable) Expire(now time.Time) []FlowEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	var expired []FlowEntry
	t.compactLocked(func(n *flowNode) bool {
		idleDead := n.IdleTimeout > 0 && now.Sub(time.Unix(0, n.lastHitNS.Load())) >= n.IdleTimeout
		hardDead := n.HardTimeout > 0 && now.Sub(n.installed) >= n.HardTimeout
		if idleDead || hardDead {
			expired = append(expired, n.snapshot())
			return true
		}
		return false
	})
	return expired
}

// Len reports the number of installed entries.
func (t *FlowTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.nodes)
}

// Misses reports how many lookups found no entry.
func (t *FlowTable) Misses() uint64 { return t.missCount.Load() }

// Generation reports the table's structure generation, which advances
// on every insert, delete and expiry (but not on lookup hits). Callers
// caching an Entries() snapshot can skip re-reading an unchanged table.
func (t *FlowTable) Generation() uint64 { return t.gen.Load() }

// Entries returns copies of all entries in priority order. The sorted
// order is cached against Generation(), so repeated calls on an
// unchanged table only re-read counters.
func (t *FlowTable) Entries() []FlowEntry {
	t.mu.RLock()
	if t.sortGen == t.gen.Load() {
		out := t.snapshotSortedLocked()
		t.mu.RUnlock()
		return out
	}
	t.mu.RUnlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sortGen != t.gen.Load() {
		t.sorted = make([]*flowNode, len(t.nodes))
		copy(t.sorted, t.nodes)
		sort.Slice(t.sorted, func(i, j int) bool {
			if t.sorted[i].Priority != t.sorted[j].Priority {
				return t.sorted[i].Priority > t.sorted[j].Priority
			}
			return t.sorted[i].seq < t.sorted[j].seq
		})
		t.sortGen = t.gen.Load()
	}
	return t.snapshotSortedLocked()
}

func (t *FlowTable) snapshotSortedLocked() []FlowEntry {
	out := make([]FlowEntry, len(t.sorted))
	for i, n := range t.sorted {
		out[i] = n.snapshot()
	}
	return out
}
