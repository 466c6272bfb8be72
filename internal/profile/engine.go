package profile

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iotsec/internal/netsim"
	"iotsec/internal/openflow"
	"iotsec/internal/packet"
	"iotsec/internal/telemetry"
)

// Violation kinds.
const (
	// ViolationAddressHop: a device sourced traffic from an address
	// other than its registered one — the identity-pinning tripwire.
	ViolationAddressHop = "address-hop"
	// ViolationService: a transport conversation outside the
	// allowlist.
	ViolationService = "unauthorized-service"
	// ViolationRate: the device exceeded its learned rate envelope.
	ViolationRate = "rate-envelope"
)

// Violation is one detected deviation of a device from its profile.
type Violation struct {
	Device string    `json:"device"`
	SKU    string    `json:"sku"`
	Kind   string    `json:"kind"`
	Detail string    `json:"detail"`
	When   time.Time `json:"when"`
}

// Options configures an Engine.
type Options struct {
	// OnViolation fires once per distinct violation tuple per device
	// (re-armed when the device's profile changes). Called without
	// engine locks held.
	OnViolation func(Violation)
	// OnRogue fires once per unknown source MAC seen while lockdown
	// is enabled.
	OnRogue func(mac packet.MACAddress, srcNode string)
	// Lockdown treats any frame from an unregistered MAC as a rogue
	// device join.
	Lockdown bool
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

// enforcedState is the per-device enforcement ledger.
type enforcedState struct {
	id       Identity
	prof     *Profile
	reported map[string]bool // violation dedupe, reset on profile change
	epoch    int64           // rate-envelope accounting second
	frames   float64
	flagged  bool
}

// EngineStats is a snapshot of engine counters.
type EngineStats struct {
	FramesSeen      uint64 `json:"frames_seen"`
	ViolationFrames uint64 `json:"violation_frames"`
	Violations      uint64 `json:"violations"`
	Rogues          uint64 `json:"rogues"`
	Profiles        int    `json:"profiles"`
	Enforced        int    `json:"enforced"`
	Learning        bool   `json:"learning"`
}

// Engine is the live half of the profile subsystem: it taps the
// fabric, feeds the Learner during training windows, and checks every
// device-originated frame of an enforced device against its SKU
// profile. Detection is independent of enforcement — the tap sees
// frames on the device's access link even when the switch later drops
// them — so a violating device is flagged whether or not its traffic
// escapes.
type Engine struct {
	opts    Options
	learner *Learner

	// active short-circuits the tap when there is nothing to do.
	active atomic.Bool

	mu         sync.Mutex
	ids        map[string]Identity          // device name → identity
	deviceMACs map[packet.MACAddress]string // registered device MACs
	hostMACs   map[packet.MACAddress]bool   // known benign non-device MACs
	profiles   map[string]*Profile          // accepted, by SKU
	enforced   map[string]*enforcedState    // by device name (== node name)
	rogues     map[packet.MACAddress]bool   // reported rogue MACs
	violations []Violation                  // bounded recent ring
	learning   bool

	framesSeen      atomic.Uint64
	violationFrames atomic.Uint64
	violationsTotal atomic.Uint64
	roguesTotal     atomic.Uint64
}

// violationRingLimit bounds the retained violation history.
const violationRingLimit = 256

// NewEngine creates an engine.
func NewEngine(opts Options) *Engine {
	e := &Engine{
		opts:       opts,
		learner:    NewLearner(),
		ids:        make(map[string]Identity),
		deviceMACs: make(map[packet.MACAddress]string),
		hostMACs:   make(map[packet.MACAddress]bool),
		profiles:   make(map[string]*Profile),
		enforced:   make(map[string]*enforcedState),
		rogues:     make(map[packet.MACAddress]bool),
	}
	e.refreshActive()
	return e
}

func (e *Engine) now() time.Time {
	if e.opts.Clock != nil {
		return e.opts.Clock()
	}
	return time.Now()
}

// refreshActive recomputes the tap fast-path flag; callers hold e.mu
// or are in a constructor.
func (e *Engine) refreshActive() {
	e.active.Store(e.learning || e.opts.Lockdown || len(e.enforced) > 0)
}

// Register declares a device identity: its name (== netsim node
// name), SKU, MAC and registered address.
func (e *Engine) Register(id Identity) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ids[id.Name] = id
	e.deviceMACs[id.MAC] = id.Name
	if st, ok := e.enforced[id.Name]; ok {
		st.id = id
	}
}

// RegisterHostMAC marks a non-device MAC (gateway, operator laptop)
// as known, so lockdown does not flag it.
func (e *Engine) RegisterHostMAC(mac packet.MACAddress) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.hostMACs[mac] = true
}

// StartLearning opens a training window: every tapped frame is
// buffered for distillation. Windows are closed by FinishLearning
// (callers own the timing).
func (e *Engine) StartLearning() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.learner.Reset()
	e.learning = true
	e.refreshActive()
}

// Learning reports whether a training window is open.
func (e *Engine) Learning() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.learning
}

// FinishLearning closes the window and distills one profile per SKU
// from the buffered frames, folding each into the accepted set. The
// distilled profiles are returned (keyed by SKU).
func (e *Engine) FinishLearning(version int) map[string]*Profile {
	e.mu.Lock()
	if !e.learning {
		e.mu.Unlock()
		return nil
	}
	e.learning = false
	ids := make([]Identity, 0, len(e.ids))
	for _, id := range e.ids {
		ids = append(ids, id)
	}
	e.refreshActive()
	e.mu.Unlock()

	profiles := e.learner.Distill(ids, version)
	e.learner.Reset()
	for _, p := range profiles {
		e.AcceptProfile(p)
		mLearned.Inc()
	}
	return profiles
}

// AcceptProfile folds a profile (locally learned or crowd-fetched)
// into the accepted set. A higher version replaces the standing
// profile (firmware-drift re-learning); the same version merges into
// it; a lower version is ignored. Returns the effective profile and
// whether it changed — callers re-push enforcement when it did.
func (e *Engine) AcceptProfile(p *Profile) (*Profile, bool) {
	if p == nil || p.Validate() != nil {
		return nil, false
	}
	in := p.Clone()
	in.normalize()
	e.mu.Lock()
	defer e.mu.Unlock()
	cur, ok := e.profiles[in.SKU]
	changed := false
	switch {
	case !ok || in.Version > cur.Version:
		e.profiles[in.SKU] = in
		cur = in
		changed = true
	case in.Version < cur.Version:
		// Stale replay; keep the newer standing profile.
	default:
		before := len(cur.Services)
		rate := cur.MaxRate
		_ = cur.Merge(in)
		changed = len(cur.Services) != before || cur.MaxRate != rate
	}
	if changed {
		mInstalled.Inc()
		for _, st := range e.enforced {
			if st.id.SKU == cur.SKU {
				st.prof = cur
				st.reported = make(map[string]bool)
			}
		}
	}
	return cur.Clone(), changed
}

// Profile returns the accepted profile for a SKU.
func (e *Engine) Profile(sku string) (*Profile, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.profiles[sku]
	if !ok {
		return nil, false
	}
	return p.Clone(), true
}

// Profiles snapshots accepted profiles sorted by SKU.
func (e *Engine) Profiles() []*Profile {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Profile, 0, len(e.profiles))
	for _, p := range e.profiles {
		out = append(out, p.Clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SKU < out[j].SKU })
	return out
}

// Enforce marks a registered device as profile-enforced and compiles
// its SKU profile into identity-pinned flow rules for the caller to
// install. It is the caller's job (core) to push the mods through
// steering; the engine begins live violation checking immediately.
func (e *Engine) Enforce(name string) ([]*openflow.FlowMod, *Profile, error) {
	e.mu.Lock()
	id, ok := e.ids[name]
	if !ok {
		e.mu.Unlock()
		return nil, nil, fmt.Errorf("profile: enforce: unknown device %q", name)
	}
	prof, ok := e.profiles[id.SKU]
	if !ok {
		e.mu.Unlock()
		return nil, nil, fmt.Errorf("profile: enforce %q: no profile for SKU %q", name, id.SKU)
	}
	st := e.enforced[name]
	if st == nil {
		st = &enforcedState{id: id, reported: make(map[string]bool)}
		e.enforced[name] = st
		mEnforced.Inc()
	}
	st.id = id
	st.prof = prof
	e.refreshActive()
	snapshot := prof.Clone()
	e.mu.Unlock()
	return Compile(snapshot, id), snapshot, nil
}

// EnforcedDevices lists enforced device names, sorted.
func (e *Engine) EnforcedDevices() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.enforced))
	for name := range e.enforced {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Violations snapshots the recent violation history (oldest first).
func (e *Engine) Violations() []Violation {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Violation, len(e.violations))
	copy(out, e.violations)
	return out
}

// Rogues lists reported rogue MACs, sorted.
func (e *Engine) Rogues() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.rogues))
	for mac := range e.rogues {
		out = append(out, mac.String())
	}
	sort.Strings(out)
	return out
}

// Stats snapshots the counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	profiles, enforced, learning := len(e.profiles), len(e.enforced), e.learning
	e.mu.Unlock()
	return EngineStats{
		FramesSeen:      e.framesSeen.Load(),
		ViolationFrames: e.violationFrames.Load(),
		Violations:      e.violationsTotal.Load(),
		Rogues:          e.roguesTotal.Load(),
		Profiles:        profiles,
		Enforced:        enforced,
		Learning:        learning,
	}
}

// Health implements the component health contract: the engine is
// degraded while an active containment event (violations or rogues)
// is on the books, healthy otherwise.
func (e *Engine) Health() (telemetry.HealthState, string) {
	s := e.Stats()
	detail := fmt.Sprintf("%d profiles, %d enforced, %d violations, %d rogues",
		s.Profiles, s.Enforced, s.Violations, s.Rogues)
	if s.Violations > 0 || s.Rogues > 0 {
		return telemetry.HealthDegraded, detail
	}
	return telemetry.HealthHealthy, detail
}

// Tap returns the function to register with netsim.Network.AddTap.
func (e *Engine) Tap() netsim.Tap {
	return func(src, dst *netsim.Port, frame netsim.Frame) {
		e.Observe(src.Owner().NodeName(), dst.Owner().NodeName(), frame)
	}
}

// Observe processes one frame hop (exported for tests that synthesize
// captures without a network).
func (e *Engine) Observe(srcNode, dstNode string, frame netsim.Frame) {
	if !e.active.Load() {
		return
	}
	now := e.now()
	e.framesSeen.Add(1)

	e.mu.Lock()
	learning := e.learning
	e.mu.Unlock()
	if learning {
		e.learner.Observe(srcNode, dstNode, frame, now)
	}

	// Taps run on the sending port's goroutine, so Observe is
	// concurrent; the pooled decoder's view dies with this frame
	// (checkLocked copies every value it keeps).
	dec := packet.GetDecoder()
	defer packet.PutDecoder(dec)
	pkt := dec.Decode(frame, packet.LayerTypeEthernet)
	eth := pkt.Ethernet()
	if eth == nil {
		return
	}

	var (
		report   *Violation
		rogueMAC packet.MACAddress
		rogue    bool
	)
	e.mu.Lock()
	// Rogue join: an unknown MAC sourcing traffic under lockdown.
	// Report once per MAC; the multi-hop tap dedupes through e.rogues.
	if e.opts.Lockdown && !e.rogues[eth.SrcMAC] && !eth.SrcMAC.IsBroadcast() {
		if _, dev := e.deviceMACs[eth.SrcMAC]; !dev && !e.hostMACs[eth.SrcMAC] {
			e.rogues[eth.SrcMAC] = true
			e.roguesTotal.Add(1)
			mRogues.Inc()
			rogueMAC, rogue = eth.SrcMAC, true
		}
	}
	// Profile checks apply only to device-originated frames on the
	// device's own access link (srcNode == device name), so each
	// frame is evaluated exactly once however many hops the tap sees.
	if st := e.enforced[srcNode]; st != nil {
		if v := e.checkLocked(st, pkt, eth, now); v != nil {
			e.violations = append(e.violations, *v)
			if len(e.violations) > violationRingLimit {
				e.violations = e.violations[len(e.violations)-violationRingLimit:]
			}
			e.violationsTotal.Add(1)
			mViolations.Inc()
			report = v
		}
	}
	e.mu.Unlock()

	if rogue && e.opts.OnRogue != nil {
		e.opts.OnRogue(rogueMAC, srcNode)
	}
	if report != nil && e.opts.OnViolation != nil {
		e.opts.OnViolation(*report)
	}
}

// checkLocked evaluates one device-originated frame against the
// device's profile. Returns a violation the first time a distinct
// tuple trips (per profile generation); counts every violating frame.
func (e *Engine) checkLocked(st *enforcedState, pkt *packet.Packet, eth *packet.Ethernet, now time.Time) *Violation {
	mk := func(kind, dedupe, detail string) *Violation {
		e.violationFrames.Add(1)
		if st.reported[dedupe] {
			return nil
		}
		st.reported[dedupe] = true
		return &Violation{
			Device: st.id.Name, SKU: st.id.SKU,
			Kind: kind, Detail: detail, When: now,
		}
	}

	// Rate envelope: coarse per-second accounting.
	if st.prof.MaxRate > 0 {
		if ep := now.Unix(); ep != st.epoch {
			st.epoch, st.frames, st.flagged = ep, 0, false
		}
		st.frames++
		if st.frames > st.prof.MaxRate && !st.flagged {
			st.flagged = true
			return mk(ViolationRate, fmt.Sprintf("rate:%d", st.epoch),
				fmt.Sprintf("%.0f frames/s exceeds envelope %.0f", st.frames, st.prof.MaxRate))
		}
	}

	if eth.EtherType == packet.EtherTypeARP {
		return nil // infrastructure, always authorized
	}
	ip := pkt.IPv4()
	if ip == nil {
		return nil // non-IP noise carries no service tuple
	}
	// Identity pinning: traffic must carry the registered address.
	if ip.SrcIP != st.id.IP {
		return mk(ViolationAddressHop, "hop:"+ip.SrcIP.String(),
			fmt.Sprintf("sourced %s, registered %s", ip.SrcIP, st.id.IP))
	}
	var proto string
	var srcPort, dstPort uint16
	if t := pkt.TCP(); t != nil {
		proto, srcPort, dstPort = "tcp", t.SrcPort, t.DstPort
	} else if u := pkt.UDP(); u != nil {
		proto, srcPort, dstPort = "udp", u.SrcPort, u.DstPort
	} else {
		return nil // ICMP etc.: not modeled, not denied by the checker
	}
	if st.prof.Allows(proto, srcPort, dstPort, ip.DstIP) {
		return nil
	}
	return mk(ViolationService,
		fmt.Sprintf("svc:%s:%d>%s:%d", proto, srcPort, ip.DstIP, dstPort),
		fmt.Sprintf("%s %s:%d > %s:%d outside allowlist", proto, ip.SrcIP, srcPort, ip.DstIP, dstPort))
}
