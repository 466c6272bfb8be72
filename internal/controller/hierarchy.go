package controller

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/policy"
	"iotsec/internal/telemetry"
)

// PostureSink receives recomputed postures for devices whose
// treatment changed; the enforcement layer (µmbox orchestrator) wires
// in here. ctx carries the causal trace of the event that forced the
// recomputation, so enforcement spans and journal entries link back
// to it.
type PostureSink func(ctx context.Context, deviceName string, p policy.Posture, version uint64)

// reconciler is the step both controller tiers run after a view commit:
// view → fsm.Lookup → diff against the postures last pushed → sink.
// Global and each Local embed one.
type reconciler struct {
	View *View
	fsm  *policy.FSM
	sink PostureSink

	mu sync.Mutex
	// lastPostures[ord] is the id of the posture last pushed to the
	// device with that ordinal in the FSM's domain; it grows when the
	// domain does. A policy has few distinct postures, so each device
	// costs four bytes and the rendered keys are held once:
	// postureKeys[id-1] is id's key and postureIDs inverts it. Id 0 is
	// never assigned, so a device with no recorded posture differs from
	// every posture.
	lastPostures []uint32
	postureKeys  []string
	postureIDs   map[string]uint32
	// reconciled is the highest view version lastPostures reflects.
	reconciled uint64
	// deliverMu is taken before mu is released and held across the sink
	// calls, so postures leave in the order reconciles decided them: a
	// stale posture never reaches the sink after the newer one that
	// superseded it. A sink must not commit to the view delivering to it.
	deliverMu sync.Mutex
}

// newReconciler builds a reconciler over a fresh view.
func newReconciler(fsm *policy.FSM, sink PostureSink) reconciler {
	return reconciler{
		View: NewView(), fsm: fsm, sink: sink,
		postureIDs: make(map[string]uint32),
	}
}

// growPostures extends lastPostures to cover every device the domain
// declares. Callers hold r.mu.
func (r *reconciler) growPostures() {
	if n := r.fsm.Domain.DeviceCount(); n > len(r.lastPostures) {
		r.lastPostures = append(r.lastPostures, make([]uint32, n-len(r.lastPostures))...)
	}
}

// postureID interns a posture key. Callers hold r.mu.
func (r *reconciler) postureID(key string) uint32 {
	if id, ok := r.postureIDs[key]; ok {
		return id
	}
	r.postureKeys = append(r.postureKeys, key)
	id := uint32(len(r.postureKeys))
	r.postureIDs[key] = id
	return id
}

// reconcile recomputes all postures and pushes the deltas, reporting
// how many it pushed.
func (r *reconciler) reconcile(ctx context.Context, version uint64) int {
	postures := r.fsm.Lookup(r.View.State())

	r.mu.Lock()
	// Commits notify outside the view's lock, so reconciles run
	// concurrently. One that read its state before a newer commit but
	// got here after that commit's reconcile would record postures the
	// view has already left, and the next real change back to them
	// would look like no change. The newer reconcile saw everything
	// this one did: skip.
	if version < r.reconciled {
		r.mu.Unlock()
		return 0
	}
	r.reconciled = version
	r.growPostures()
	// Changed devices are kept by name: their postures stay in the
	// lookup's map until delivery, so nothing is copied.
	var changed []string
	r.fsm.Domain.EachDevice(func(ord int, dev string) {
		// A device declared after the lookup ran has no posture yet;
		// the next reconcile pushes it.
		p, ok := postures[dev]
		if !ok {
			return
		}
		key := p.Key()
		if id := r.lastPostures[ord]; id != 0 && r.postureKeys[id-1] == key {
			return
		}
		r.lastPostures[ord] = r.postureID(key)
		changed = append(changed, dev)
	})
	r.deliverMu.Lock()
	r.mu.Unlock()
	defer r.deliverMu.Unlock()

	if r.sink != nil {
		for _, dev := range changed {
			r.sink(ctx, dev, postures[dev], version)
		}
	}
	return len(changed)
}

// Postures snapshots the last pushed posture keys (device → posture
// key) — checkpoint material.
func (r *reconciler) Postures() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]string, len(r.lastPostures))
	r.fsm.Domain.EachDevice(func(ord int, dev string) {
		if ord < len(r.lastPostures) && r.lastPostures[ord] != 0 {
			out[dev] = r.postureKeys[r.lastPostures[ord]-1]
		}
	})
	return out
}

// seedPostures primes the posture cache from a checkpoint so the
// post-restore reconcile only pushes deltas instead of re-delivering
// every posture the dead controller had already enforced. Devices the
// domain does not declare are skipped: no reconcile pushes to them.
func (r *reconciler) seedPostures(m map[string]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.growPostures()
	for dev, key := range m {
		if ord, ok := r.fsm.Domain.DeviceOrdinal(dev); ok {
			r.lastPostures[ord] = r.postureID(key)
		}
	}
}

// Global is the logically centralized controller: it owns the
// authoritative view and the full policy, recomputing postures on
// every committed change.
type Global struct {
	reconciler

	// commitTimes retains the commit wall-clock of recent versions so
	// the enforcement layer can measure event→enforcement latency
	// (Figure 2's end-to-end loop). Version v sits in slot v mod
	// commitWindow until a later version takes the slot, so at most
	// commitWindow versions are retained even when View.Restore jumps
	// the version past ones never recorded.
	commitMu    sync.Mutex
	commitTimes []commitTime

	recomputes atomic.Uint64
	changes    atomic.Uint64

	fleetOnce sync.Once
	fleet     *FleetAggregator
}

// commitWindow bounds Global's retained commit timestamps.
const commitWindow = 4096

// commitTime is one retained (version, commit wall-clock) pair.
type commitTime struct {
	version uint64
	at      time.Time
}

// NewGlobal builds the global controller over a fresh view.
func NewGlobal(fsm *policy.FSM, sink PostureSink) *Global {
	g := &Global{
		reconciler:  newReconciler(fsm, sink),
		commitTimes: make([]commitTime, commitWindow),
	}
	g.View.Observe(func(ctx context.Context, c ViewChange) {
		g.recordCommit(c.Version, c.When)
		g.reconcile(ctx, c.Version)
	})
	return g
}

// recordCommit retains a version's commit time, evicting the one
// commitWindow versions older.
func (g *Global) recordCommit(version uint64, when time.Time) {
	g.commitMu.Lock()
	g.commitTimes[version%commitWindow] = commitTime{version, when}
	g.commitMu.Unlock()
}

// CommitTime reports when the given store version was committed, if
// still retained.
func (g *Global) CommitTime(version uint64) (time.Time, bool) {
	g.commitMu.Lock()
	defer g.commitMu.Unlock()
	c := g.commitTimes[version%commitWindow]
	if version == 0 || c.version != version {
		return time.Time{}, false
	}
	return c.at, true
}

// reconcile runs the full policy and counts the work.
func (g *Global) reconcile(ctx context.Context, version uint64) {
	g.recomputes.Add(1)
	mRecomputes.Inc()
	n := uint64(g.reconciler.reconcile(ctx, version))
	g.changes.Add(n)
	mPostureChanges.Add(n)
}

// Metrics reports recomputation and posture-change counts.
func (g *Global) Metrics() (recomputes, postureChanges uint64) {
	return g.recomputes.Load(), g.changes.Load()
}

// Hierarchy splits event handling between per-partition local
// controllers and the global controller (§5.1): events whose policy
// consequences stay within one partition are resolved locally;
// everything else escalates and pays the global round trip.
type Hierarchy struct {
	Global       *Global
	partitioning *Partitioning
	fsm          *policy.FSM
	sink         PostureSink

	// GlobalDelay models the extra round trip an escalation pays
	// (zero = no modeling).
	GlobalDelay time.Duration

	// globalVars is the variable support of the rules no partition can
	// resolve alone: events moving one escalate.
	globalVars map[string]bool

	// localRules holds each partition's delegated rule subset, over the
	// fleet domain: the compiled rules its local FSM shares, and what a
	// replacement local is rebuilt from after a failover.
	localRules map[int]*policy.FSM

	locals map[int]*Local

	localHandled atomic.Uint64
	escalated    atomic.Uint64

	// fleetStats, when attached, carries per-partition telemetry up the
	// rollup plane; nil keeps the hot path at one atomic load + branch.
	fleetStats atomic.Pointer[fleetStatsSet]

	// rehomes, when non-nil, overrides event routing for failed-over
	// partitions (see rehome.go). Copy-on-write: the hot path pays one
	// atomic load + nil branch until the first failover.
	rehomes  atomic.Pointer[rehomeTable]
	rehomeMu sync.Mutex
	// adopted counts extra devices each surviving group hosts, so
	// consecutive failovers spread deterministically by load.
	adopted map[int]int
}

// Local is one partition's controller: it keeps a local view and
// resolves the partition-local rule subset itself.
type Local struct {
	Group int
	reconciler

	// down is the crash flag: a dead local absorbs nothing until the
	// supervisor declares it failed and re-homes its partition.
	down atomic.Bool
}

// Alive reports whether the local controller is running.
func (l *Local) Alive() bool { return !l.down.Load() }

// Kill crashes the local controller (chaos harnesses and fault
// injection): it stops absorbing events immediately. Its partition's
// devices are unprotected until the supervisor's deadman notices and
// re-homes them — exactly the window the failover machinery bounds.
func (l *Local) Kill() { l.down.Store(true) }

// NewHierarchy builds the hierarchy over a partitioning. Rules whose
// device and condition variables all fall within one partition are
// delegated to that partition's local controller; all other rules run
// globally. Environment variables are local to a partition when named
// in envLocality.
func NewHierarchy(fsm *policy.FSM, part *Partitioning, envLocality map[string]int, sink PostureSink) *Hierarchy {
	return NewHierarchyWithGlobal(NewGlobal(fsm, sink), fsm, part, envLocality, sink)
}

// NewHierarchyWithGlobal builds the hierarchy over an existing global
// controller (a platform that assembled its Global first can adopt the
// partition tier later). g must have been built over the same fsm.
func NewHierarchyWithGlobal(g *Global, fsm *policy.FSM, part *Partitioning, envLocality map[string]int, sink PostureSink) *Hierarchy {
	h := &Hierarchy{
		Global:       g,
		partitioning: part,
		fsm:          fsm,
		sink:         sink,
		globalVars:   make(map[string]bool),
		localRules:   make(map[int]*policy.FSM),
		locals:       make(map[int]*Local),
		adopted:      make(map[int]int),
	}
	// Expose the partition shape on the default registry; the fixed id
	// means a rebuilt hierarchy replaces its predecessor's collector.
	part.ExportTelemetry(nil, "hierarchy")

	// Classify each compiled rule: ruleGroup[i] is the partition rule i
	// is delegated to, or -1 when it runs globally; runs[g] spans the
	// indices of partition g's rules.
	n := fsm.RuleCount()
	ruleGroup := make([]int32, n)
	type span struct{ first, last int }
	runs := make(map[int]span)
	var (
		group int
		local bool
	)
	inGroup := func(prefix, name string) bool {
		switch prefix {
		case "dev:":
			local = part.GroupOf(name) == group
		case "env:":
			cg, ok := envLocality[name]
			local = ok && cg == group
		default:
			local = false
		}
		return local
	}
	markGlobal := func(prefix, name string) bool {
		h.globalVars[prefix+name] = true
		return true
	}
	for i := 0; i < n; i++ {
		group = part.GroupOf(fsm.RuleDevice(i))
		local = group >= 0
		if local {
			fsm.EachVar(i, inGroup)
		}
		if local {
			ruleGroup[i] = int32(group)
			s, seen := runs[group]
			if !seen {
				s.first = i
			}
			s.last = i
			runs[group] = s
		} else {
			ruleGroup[i] = -1
			fsm.EachVar(i, markGlobal)
		}
	}
	// A partition whose rules sit contiguously in the policy (one built
	// device by device, in partition order) shares that stretch of the
	// compiled rules; any other gets one copy.
	for g, s := range runs {
		h.localRules[g] = fsm.Subset(fsm.Domain, s.first, s.last+1, func(i int) bool { return ruleGroup[i] == int32(g) })
	}

	for g := range h.localRules {
		h.locals[g] = h.newLocalFor(g)
	}
	return h
}

// newLocalFor builds a fresh local controller for one partition from
// its retained rule subset — used both at construction and when a
// replacement is rebuilt after a failover. The local FSM shares the
// subset and sees a domain restricted to the partition's devices and
// the env vars its rules reference: FSM.Lookup walks the whole domain
// to assign default postures, so the fleet-wide domain would make every
// local reconcile O(fleet) instead of O(shard).
func (h *Hierarchy) newLocalFor(g int) *Local {
	rules := h.localRules[g]
	devs, envVars := policy.SortedSet(h.groupDevices(g)), ruleEnvVars(rules)
	scope := h.fsm.Domain.Restrict(devs, envVars)
	fsm := rules.Subset(scope, 0, rules.RuleCount(), nil)
	local := &Local{Group: g, reconciler: newReconciler(fsm, h.sink)}
	local.View.contexts.scope, local.View.env.scope = devs, envVars
	local.View.Observe(func(ctx context.Context, c ViewChange) { local.reconcile(ctx, c.Version) })
	return local
}

// ruleEnvVars lists the env vars (without the "env:" prefix) the rules'
// conditions name, sorted and duplicate-free. The names are the
// domain's own strings (nil rules: none).
func ruleEnvVars(rules *policy.FSM) []string {
	if rules == nil {
		return nil
	}
	var out []string
	collect := func(prefix, name string) bool {
		if prefix == "env:" {
			out = append(out, name)
		}
		return true
	}
	for i := 0; i < rules.RuleCount(); i++ {
		rules.EachVar(i, collect)
	}
	slices.Sort(out)
	return slices.Clip(slices.Compact(out))
}

// HandleDeviceEvent routes an event: the owning partition's local
// controller absorbs it; only events moving a variable some global rule
// references escalate (paying GlobalDelay). The trace carried by ctx
// crosses the local/global boundary with the event, so escalated
// enforcement still links back to the original sensor reading.
func (h *Hierarchy) HandleDeviceEvent(ctx context.Context, e device.Event) {
	group := h.partitioning.GroupOf(e.Device)
	local, failGlobal := h.routeFor(group)
	varName, value := eventVar(e)
	if local != nil {
		local.View.fold(ctx, e, varName, value)
	}
	h.settle(ctx, group, e.Device, failGlobal || h.globalVars[varName],
		func(ctx context.Context) { h.Global.View.fold(ctx, e, varName, value) })
}

// settle books an event its partition's controller has seen (or, for a
// partition re-homed to global, could not): absorbed locally, or
// escalated — the global round trip is paid and commit runs against the
// global view under the escalation span. Re-homed-to-global partitions
// escalate everything: the global controller runs the full policy, so
// it can stand in for the dead local at the cost of the round trip
// (degraded mode).
func (h *Hierarchy) settle(ctx context.Context, group int, subject string, escalate bool, commit func(context.Context)) {
	h.recordShardEvent(group, subject, escalate)
	if !escalate {
		h.localHandled.Add(1)
		mLocalHandled.Inc()
		return
	}
	h.escalated.Add(1)
	mEscalations.Inc()
	ctx, span := telemetry.StartSpan(ctx, "controller.escalate")
	if h.GlobalDelay > 0 {
		time.Sleep(h.GlobalDelay)
	}
	commit(ctx)
	span.End()
}

// routeFor resolves the partition's current controller: the
// replacement local after a re-home, the original while it is alive,
// or (nil, true) when the partition runs in degraded fail-global mode.
// A dead, not-yet-re-homed partition resolves to (nil, false) — its
// events are absorbed by nobody, which is exactly the unprotected
// window the supervisor's deadman bounds.
func (h *Hierarchy) routeFor(group int) (local *Local, failGlobal bool) {
	if rt := h.rehomes.Load(); rt != nil {
		if ent, ok := rt.targets[group]; ok {
			return ent.local, ent.local == nil
		}
	}
	if l, ok := h.locals[group]; ok && l.Alive() {
		return l, false
	}
	return nil, false
}

// Metrics reports locally absorbed vs escalated events.
func (h *Hierarchy) Metrics() (local, escalated uint64) {
	return h.localHandled.Load(), h.escalated.Load()
}

// Locals reports the number of local controllers.
func (h *Hierarchy) Locals() int { return len(h.locals) }

// LocalFor returns a partition's ORIGINAL local controller (nil when
// the partition has no delegated rules). Chaos harnesses crash
// controllers through it via Kill; routing consults routeFor, so a
// killed original never absorbs events even before the supervisor
// notices.
func (h *Hierarchy) LocalFor(group int) *Local { return h.locals[group] }
