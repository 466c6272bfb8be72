package controller

import (
	"context"
	"strings"
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

	mu           sync.Mutex
	lastPostures map[string]string // device → posture key
	// reconciled is the highest view version lastPostures reflects.
	reconciled uint64
	// deliverMu is taken before mu is released and held across the sink
	// calls, so postures leave in the order reconciles decided them: a
	// stale posture never reaches the sink after the newer one that
	// superseded it. A sink must not commit to the view delivering to it.
	deliverMu sync.Mutex
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
	type change struct {
		dev string
		p   policy.Posture
	}
	var changed []change
	for dev, p := range postures {
		key := p.Key()
		if r.lastPostures[dev] != key {
			r.lastPostures[dev] = key
			changed = append(changed, change{dev, p})
		}
	}
	r.deliverMu.Lock()
	r.mu.Unlock()
	defer r.deliverMu.Unlock()

	if r.sink != nil {
		for _, c := range changed {
			r.sink(ctx, c.dev, c.p, version)
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
	for dev, key := range r.lastPostures {
		out[dev] = key
	}
	return out
}

// seedPostures primes the posture cache from a checkpoint so the
// post-restore reconcile only pushes deltas instead of re-delivering
// every posture the dead controller had already enforced.
func (r *reconciler) seedPostures(m map[string]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for dev, key := range m {
		r.lastPostures[dev] = key
	}
}

// Global is the logically centralized controller: it owns the
// authoritative view and the full policy, recomputing postures on
// every committed change.
type Global struct {
	reconciler

	// commitTimes retains the commit wall-clock of recent versions so
	// the enforcement layer can measure event→enforcement latency
	// (Figure 2's end-to-end loop). Bounded to the last commitWindow
	// versions.
	commitMu    sync.Mutex
	commitTimes map[uint64]time.Time

	recomputes atomic.Uint64
	changes    atomic.Uint64

	fleetOnce sync.Once
	fleet     *FleetAggregator
}

// commitWindow bounds Global's retained commit timestamps.
const commitWindow = 4096

// NewGlobal builds the global controller over a fresh view.
func NewGlobal(fsm *policy.FSM, sink PostureSink) *Global {
	g := &Global{
		reconciler:  reconciler{View: NewView(), fsm: fsm, sink: sink, lastPostures: make(map[string]string)},
		commitTimes: make(map[uint64]time.Time),
	}
	g.View.Observe(func(ctx context.Context, c ViewChange) {
		g.recordCommit(c.Version, c.When)
		g.reconcile(ctx, c.Version)
	})
	return g
}

// recordCommit retains a version's commit time (bounded window).
func (g *Global) recordCommit(version uint64, when time.Time) {
	g.commitMu.Lock()
	g.commitTimes[version] = when
	delete(g.commitTimes, version-commitWindow) // monotonic versions: evict the tail
	g.commitMu.Unlock()
}

// CommitTime reports when the given store version was committed, if
// still retained.
func (g *Global) CommitTime(version uint64) (time.Time, bool) {
	g.commitMu.Lock()
	defer g.commitMu.Unlock()
	t, ok := g.commitTimes[version]
	return t, ok
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

	// localVars[g] is the variable support a partition can resolve
	// alone; globalVars is the remainder.
	localRuleVars map[int]map[string]bool
	globalVars    map[string]bool

	// localRules retains each partition's delegated rule subset so a
	// replacement local can be rebuilt after a failover.
	localRules map[int][]policy.Rule

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
		Global:        g,
		partitioning:  part,
		fsm:           fsm,
		sink:          sink,
		localRuleVars: make(map[int]map[string]bool),
		globalVars:    make(map[string]bool),
		localRules:    make(map[int][]policy.Rule),
		locals:        make(map[int]*Local),
		adopted:       make(map[int]int),
	}
	// Expose the partition shape on the default registry; the fixed id
	// means a rebuilt hierarchy replaces its predecessor's collector.
	part.ExportTelemetry(nil, "hierarchy")

	// Classify each rule.
	localRules := make(map[int][]policy.Rule)
	varGroup := func(v string) (int, bool) {
		if name, ok := strings.CutPrefix(v, "dev:"); ok {
			g := part.GroupOf(name)
			return g, g >= 0
		}
		if name, ok := strings.CutPrefix(v, "env:"); ok {
			g, ok := envLocality[name]
			return g, ok
		}
		return 0, false
	}
	for _, r := range fsm.Rules() {
		g := part.GroupOf(r.Device)
		local := g >= 0
		for _, c := range r.Conditions {
			cg, ok := varGroup(c.Var)
			if !ok || cg != g {
				local = false
				break
			}
		}
		if local {
			localRules[g] = append(localRules[g], r)
			if h.localRuleVars[g] == nil {
				h.localRuleVars[g] = make(map[string]bool)
			}
			for _, c := range r.Conditions {
				h.localRuleVars[g][c.Var] = true
			}
		} else {
			for _, c := range r.Conditions {
				h.globalVars[c.Var] = true
			}
		}
	}

	// Build the local controllers. Each local FSM gets a *scoped*
	// domain holding only its partition's devices and the env vars its
	// rules reference: FSM.Lookup walks the whole domain to assign
	// default postures, so sharing the fleet-wide domain would make
	// every local reconcile O(fleet) instead of O(shard).
	h.localRules = localRules
	for g := range localRules {
		h.locals[g] = h.newLocalFor(g)
	}
	return h
}

// newLocalFor builds a fresh local controller for one partition from
// its retained rule subset — used both at construction and when a
// replacement is rebuilt after a failover.
func (h *Hierarchy) newLocalFor(g int) *Local {
	rules := h.localRules[g]
	scoped := policy.NewDomain()
	if g >= 0 && g < len(h.partitioning.Groups) {
		for _, dev := range h.partitioning.Groups[g] {
			scoped.AddDevice(dev, h.fsm.Domain.DeviceContexts(dev)...)
		}
	}
	for _, r := range rules {
		for _, c := range r.Conditions {
			if name, ok := strings.CutPrefix(c.Var, "env:"); ok {
				scoped.AddEnvVar(name, h.fsm.Domain.EnvLevels(name)...)
			}
		}
	}
	lf := policy.NewFSM(scoped)
	for _, r := range rules {
		lf.AddRule(r)
	}
	local := &Local{
		Group:      g,
		reconciler: reconciler{View: NewView(), fsm: lf, sink: h.sink, lastPostures: make(map[string]string)},
	}
	local.View.Observe(func(ctx context.Context, c ViewChange) { local.reconcile(ctx, c.Version) })
	return local
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
	h.settle(ctx, group, "device", e.Device, failGlobal || h.globalVars[varName],
		func(ctx context.Context) { h.Global.View.fold(ctx, e, varName, value) })
}

// HandleEnv routes an environment reading to the owning partition (if
// local) and to the global view when globally referenced.
func (h *Hierarchy) HandleEnv(ctx context.Context, envVar, level string, group int, reason string) {
	local, failGlobal := h.routeFor(group)
	if local != nil {
		local.View.SetEnv(ctx, envVar, level, reason)
	}
	h.settle(ctx, group, "env", envVar, failGlobal || h.globalVars["env:"+envVar],
		func(ctx context.Context) { h.Global.View.SetEnv(ctx, envVar, level, reason) })
}

// settle books an event its partition's controller has seen (or, for a
// partition re-homed to global, could not): absorbed locally, or
// escalated — the global round trip is paid and commit runs against the
// global view under the escalation span. Re-homed-to-global partitions
// escalate everything: the global controller runs the full policy, so
// it can stand in for the dead local at the cost of the round trip
// (degraded mode).
func (h *Hierarchy) settle(ctx context.Context, group int, attr, subject string, escalate bool, commit func(context.Context)) {
	h.recordShardEvent(group, subject, escalate)
	if !escalate {
		h.localHandled.Add(1)
		mLocalHandled.Inc()
		return
	}
	h.escalated.Add(1)
	mEscalations.Inc()
	ctx, span := telemetry.StartSpan(ctx, "controller.escalate")
	span.SetAttr(attr, subject)
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
