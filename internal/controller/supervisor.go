package controller

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/resilience"
	"iotsec/internal/telemetry"
)

// FailMode selects what happens to a partition whose local controller
// dies.
type FailMode string

const (
	// FailModeRehome re-assigns the orphaned partition to the
	// least-loaded surviving local controller (falling back to the
	// global controller when none survives).
	FailModeRehome FailMode = "rehome"
	// FailModeGlobal escalates the orphaned partition straight to the
	// global controller: every event pays the global round trip until an
	// operator rebuilds the tier (degraded but simple).
	FailModeGlobal FailMode = "fail-global"
)

// ParseFailMode maps a flag value to a FailMode.
func ParseFailMode(s string) (FailMode, bool) {
	switch FailMode(s) {
	case FailModeRehome:
		return FailModeRehome, true
	case FailModeGlobal:
		return FailModeGlobal, true
	}
	return "", false
}

// SupervisorOptions tune the deadman and checkpoint cadence. The zero
// value is usable: system clock, 500ms heartbeat, 3 misses, 2s
// checkpoints, re-home fail mode.
type SupervisorOptions struct {
	// Clock drives all liveness timing (tests inject a FakeClock).
	Clock resilience.Clock
	// Heartbeat is the deadman probe period (default 500ms).
	Heartbeat time.Duration
	// Misses is how many consecutive failed probes declare a local dead
	// (default 3). Confirmation probes after the first miss follow a
	// deterministic backoff schedule (Heartbeat, 2×, 4×, capped) so a
	// flapping local gets progressively longer grace without unbounding
	// the detection window.
	Misses int
	// CheckpointEvery is the snapshot period (default 2s; <0 disables
	// periodic checkpoints — Checkpoint() still forces one).
	CheckpointEvery time.Duration
	// FailMode picks re-home vs fail-global (default re-home).
	FailMode FailMode
	// Journal receives the supervisor's own failover events (default
	// journal.Default). View-change REPLAY always reads journal.Default
	// regardless, because View.apply records there.
	Journal *journal.Journal
	// QuarantinedOf reports the devices the control plane holds under
	// standing quarantine in a partition — checkpoint material.
	QuarantinedOf func(group int) []string
	// ReadbackQuarantines reports the quarantine drops actually resident
	// in the switch flow tables for a partition (e.g.
	// Steering.IsolatedDevices). Recovery unions it with the checkpoint
	// so a quarantine installed after the last snapshot still gets
	// re-pushed.
	ReadbackQuarantines func(group int) []string
	// RepushQuarantine re-asserts one device's quarantine. Recovery
	// calls it for the full union BEFORE any state restore (fail-closed
	// ordering).
	RepushQuarantine func(ctx context.Context, device string)
	// ProfileGen reports the enforcement plane's installed-profile
	// generation for checkpoints.
	ProfileGen func() uint64
	// Fleet, when set, gets failover state pushed into the rollup plane
	// (SetShardFailover) so /debug/fleet and mboxctl fleet surface it.
	Fleet *FleetAggregator
	// OnFailover observes each completed failover (chaos harnesses wait
	// on it). Called with the supervisor lock held; must not block.
	OnFailover func(FailoverRecord)
}

// FailoverRecord is one completed failover, oldest-detail first in the
// supervisor's bounded history.
type FailoverRecord struct {
	// Group is the partition whose local controller died.
	Group int `json:"group"`
	// DetectedAt is when the deadman declared it dead.
	DetectedAt time.Time `json:"detected_at"`
	// Misses is the failed-probe count at declaration.
	Misses int `json:"misses"`
	// Target names the new home ("shard-NNN" or "global").
	Target string `json:"target"`
	// QuarantinesRepushed counts devices whose quarantine was
	// re-asserted before state restore.
	QuarantinesRepushed int `json:"quarantines_repushed"`
	// VarsRestored counts view variables rebuilt into the new home.
	VarsRestored int `json:"vars_restored"`
	// EventsReplayed counts journal view-changes replayed on top of the
	// checkpoint.
	EventsReplayed int `json:"events_replayed"`
	// Recovery is detection → recovery-complete.
	Recovery time.Duration `json:"recovery_ns"`
	// TraceID links the failover/rehomed/recovered journal events.
	TraceID uint64 `json:"trace_id,omitempty"`
}

// groupState is one supervised partition's deadman state.
type groupState struct {
	lastBeat  time.Time
	misses    int
	probe     *resilience.Backoff
	nextProbe time.Time
	dead      bool
}

// Supervisor runs the deadman + checkpoint loop over a hierarchy's
// local controllers and executes the failover protocol when one dies:
// journal controller-failover, re-push quarantines (fail-closed),
// re-home the partition, journal partition-rehomed and
// recovery-complete on the same trace, and observe the recovery MTTR.
//
// Tick is the whole supervision pass and is safe to drive directly —
// determinism tests call it under a FakeClock instead of Start's loop.
type Supervisor struct {
	h     *Hierarchy
	opts  SupervisorOptions
	clock resilience.Clock
	j     *journal.Journal

	log     *CheckpointLog
	history *resilience.Ring[FailoverRecord] // the last historyCap failovers

	mu       sync.Mutex
	groups   map[int]*groupState
	lastCkpt time.Time

	loop resilience.Loop
}

const historyCap = 64

// Supervise attaches a supervisor to the hierarchy's local controllers.
// It does not start the background loop — call Start, or drive Tick
// manually.
func (h *Hierarchy) Supervise(opts SupervisorOptions) *Supervisor {
	if opts.Clock == nil {
		opts.Clock = resilience.System
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = 500 * time.Millisecond
	}
	if opts.Misses <= 0 {
		opts.Misses = 3
	}
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = 2 * time.Second
	}
	if opts.FailMode == "" {
		opts.FailMode = FailModeRehome
	}
	if opts.Journal == nil {
		opts.Journal = journal.Default
	}
	s := &Supervisor{
		h:       h,
		opts:    opts,
		clock:   opts.Clock,
		j:       opts.Journal,
		log:     NewCheckpointLog(),
		history: resilience.NewRing[FailoverRecord](historyCap),
		groups:  make(map[int]*groupState, len(h.locals)),
	}
	now := s.clock.Now()
	s.lastCkpt = now
	for g := range h.locals {
		s.groups[g] = &groupState{lastBeat: now}
	}
	mCtrlSupervised.Set(int64(len(s.groups)))
	return s
}

// Start runs Tick every Heartbeat on the configured clock until Stop.
func (s *Supervisor) Start() {
	s.loop.Start(s.clock, s.opts.Heartbeat, nil, func(bool) { s.Tick() })
}

// Stop halts the background loop and waits for a Tick in flight
// (idempotent; no-op if Start was never called). An OnFailover hook
// runs inside Tick, so it must not call Stop.
func (s *Supervisor) Stop() { s.loop.Stop() }

// Tick runs one deterministic supervision pass: probe every supervised
// local, declare deaths, fail over, and take due checkpoints.
func (s *Supervisor) Tick() {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.sortedGroupsLocked() {
		gs := s.groups[g]
		if gs.dead {
			continue
		}
		if s.h.locals[g].Alive() {
			gs.lastBeat, gs.misses, gs.probe = now, 0, nil
			continue
		}
		// Missed beat. Confirmation probes are paced by a deterministic
		// (jitter-free) backoff so the schedule replays identically.
		if gs.probe != nil && now.Before(gs.nextProbe) {
			continue
		}
		gs.misses++
		mCtrlMissedBeats.Inc()
		if gs.probe == nil {
			gs.probe = resilience.NewBackoff(resilience.BackoffOptions{
				Base: s.opts.Heartbeat, Cap: 4 * s.opts.Heartbeat, NoJitter: true,
			})
		}
		if gs.misses >= s.opts.Misses {
			s.failoverLocked(now, g, gs)
			continue
		}
		gs.nextProbe = now.Add(gs.probe.Next())
	}
	if s.opts.CheckpointEvery > 0 && now.Sub(s.lastCkpt) >= s.opts.CheckpointEvery {
		s.checkpointLocked(now)
	}
}

// Checkpoint forces an immediate snapshot pass over every live
// partition (originals and post-failover replacements).
func (s *Supervisor) Checkpoint() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.checkpointLocked(s.clock.Now())
}

// checkpointLocked snapshots each partition whose controller (original
// or replacement) is live. Fail-global partitions have no local state
// to snapshot — the global view is authoritative for them.
func (s *Supervisor) checkpointLocked(now time.Time) {
	s.lastCkpt = now
	rt := s.h.rehomes.Load()
	for _, g := range s.sortedGroupsLocked() {
		var l *Local
		if s.groups[g].dead {
			if rt != nil {
				if ent, ok := rt.targets[g]; ok {
					l = ent.local
				}
			}
		} else if orig := s.h.locals[g]; orig.Alive() {
			l = orig
		}
		if l == nil {
			continue
		}
		// Capture the journal sequence BEFORE the variable snapshot:
		// View.apply commits to the view before journaling, so any
		// view-change at or below seq is already in Vars and replaying
		// everything above seq loses nothing.
		seq, _ := journal.Default.Stats()
		ck := Checkpoint{
			Group:    g,
			TakenAt:  now,
			Seq:      seq,
			Version:  l.View.Version(),
			Vars:     l.View.Vars(),
			Postures: l.Postures(),
		}
		if s.opts.QuarantinedOf != nil {
			ck.Quarantined = append([]string(nil), s.opts.QuarantinedOf(g)...)
			sort.Strings(ck.Quarantined)
		}
		if s.opts.ProfileGen != nil {
			ck.ProfileGen = s.opts.ProfileGen()
		}
		s.log.Append(ck)
		mCtrlCheckpoints.Inc()
	}
}

// failoverLocked executes the recovery protocol for one dead local.
// Ordering is the invariant DESIGN.md §12 documents: journal the
// failure, re-push quarantines (checkpoint ∪ flow-table readback),
// THEN rebuild state and re-home, then close the trace with
// recovery-complete and observe the MTTR.
func (s *Supervisor) failoverLocked(now time.Time, group int, gs *groupState) {
	gs.dead = true
	ctx, span := telemetry.StartSpan(context.Background(), "controller.failover")
	span.SetAttr("group", strconv.Itoa(group))
	defer span.End()

	failGlobal := s.opts.FailMode == FailModeGlobal
	mCtrlFailovers.Inc()
	s.j.Record(ctx, journal.TypeCtrlFailover, journal.Critical, "",
		fmt.Sprintf("local controller %d dead after %d missed heartbeats; re-homing %d devices (%s)",
			group, gs.misses, len(s.h.groupDevices(group)), s.opts.FailMode))

	ck, _ := s.log.Latest(group) // zero checkpoint ⇒ full journal replay

	// Fail-closed: quarantines first, from the union of the last
	// checkpoint and what the switches actually hold.
	quarSet := make(map[string]bool, len(ck.Quarantined))
	for _, dev := range ck.Quarantined {
		quarSet[dev] = true
	}
	if s.opts.ReadbackQuarantines != nil {
		for _, dev := range s.opts.ReadbackQuarantines(group) {
			quarSet[dev] = true
		}
	}
	quar := make([]string, 0, len(quarSet))
	for dev := range quarSet {
		quar = append(quar, dev)
	}
	sort.Strings(quar)
	for _, dev := range quar {
		if s.opts.RepushQuarantine != nil {
			s.opts.RepushQuarantine(ctx, dev)
		}
		mCtrlQuarantineRepush.Inc()
	}

	res := s.h.rehome(ctx, group, failGlobal, ck, s.j, now)

	recovery := s.clock.Now().Sub(now)
	mCtrlRecoverySeconds.Observe(recovery.Seconds())
	s.j.Record(ctx, journal.TypeCtrlRecovered, journal.Info, "",
		fmt.Sprintf("partition %d protected again via %s in %s: %d quarantines re-pushed first, %d vars restored, %d events replayed",
			group, res.Target, recovery, len(quar), res.VarsRestored, res.EventsReplayed))

	rec := FailoverRecord{
		Group: group, DetectedAt: now, Misses: gs.misses, Target: res.Target,
		QuarantinesRepushed: len(quar), VarsRestored: res.VarsRestored,
		EventsReplayed: res.EventsReplayed, Recovery: recovery,
		TraceID: telemetry.TraceID(ctx),
	}
	s.history.Push(rec)
	if s.opts.Fleet != nil {
		s.opts.Fleet.SetShardFailover(fmt.Sprintf("shard-%03d", group), res.Target, now)
	}
	if s.opts.OnFailover != nil {
		s.opts.OnFailover(rec)
	}
}

// sortedGroupsLocked returns supervised groups in deterministic order.
func (s *Supervisor) sortedGroupsLocked() []int {
	out := make([]int, 0, len(s.groups))
	for g := range s.groups {
		out = append(out, g)
	}
	sort.Ints(out)
	return out
}

// History returns the retained failover records, oldest first.
func (s *Supervisor) History() []FailoverRecord {
	return s.history.Snapshot()
}

// Checkpoints exposes the snapshot log (failover-snapshot.json
// artifact body).
func (s *Supervisor) Checkpoints() *CheckpointLog { return s.log }

// ControllerStatus is one partition's supervision state for operators.
type ControllerStatus struct {
	Group   int  `json:"group"`
	Devices int  `json:"devices"`
	Alive   bool `json:"alive"`
	Misses  int  `json:"misses,omitempty"`
	// LastBeat is the last successful liveness probe.
	LastBeat time.Time `json:"last_beat"`
	// LastCheckpoint / CheckpointAgeSecs describe the newest snapshot
	// (absent when none was taken yet).
	LastCheckpoint *time.Time `json:"last_checkpoint,omitempty"`
	CheckpointAge  float64    `json:"checkpoint_age_secs,omitempty"`
	CheckpointSeq  uint64     `json:"checkpoint_seq,omitempty"`
	// RehomedTo / RehomedAt are set once the partition failed over.
	RehomedTo string     `json:"rehomed_to,omitempty"`
	RehomedAt *time.Time `json:"rehomed_at,omitempty"`
}

// SupervisorStatus is the /debug/controllers document.
type SupervisorStatus struct {
	FailMode      FailMode           `json:"fail_mode"`
	HeartbeatSecs float64            `json:"heartbeat_secs"`
	Misses        int                `json:"misses"`
	Partitions    []ControllerStatus `json:"partitions"`
	Failovers     []FailoverRecord   `json:"failovers,omitempty"`
}

// Status snapshots every supervised partition plus the failover
// history.
func (s *Supervisor) Status() SupervisorStatus {
	now := s.clock.Now()
	s.mu.Lock()
	groups := s.sortedGroupsLocked()
	states := make(map[int]groupState, len(groups))
	for g, gs := range s.groups {
		states[g] = *gs
	}
	s.mu.Unlock()

	st := SupervisorStatus{
		FailMode:      s.opts.FailMode,
		HeartbeatSecs: s.opts.Heartbeat.Seconds(),
		Misses:        s.opts.Misses,
		Failovers:     s.History(),
	}
	for _, g := range groups {
		gs := states[g]
		cs := ControllerStatus{
			Group:    g,
			Devices:  len(s.h.groupDevices(g)),
			Alive:    !gs.dead && s.h.locals[g].Alive(),
			Misses:   gs.misses,
			LastBeat: gs.lastBeat,
		}
		if ck, ok := s.log.Latest(g); ok {
			t := ck.TakenAt
			cs.LastCheckpoint = &t
			cs.CheckpointAge = now.Sub(t).Seconds()
			cs.CheckpointSeq = ck.Seq
		}
		if target, ok := s.h.Rehomed(g); ok {
			cs.RehomedTo = target.Target
			at := target.At
			cs.RehomedAt = &at
		}
		st.Partitions = append(st.Partitions, cs)
	}
	return st
}

// Handler serves Status as JSON — mounted at /debug/controllers.
func (s *Supervisor) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		telemetry.WriteJSON(w, s.Status())
	})
}
