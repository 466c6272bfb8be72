package controller

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"iotsec/internal/journal"
)

// rehomeEntry records where a failed-over partition's events go now: a
// replacement local hosted by a surviving group, or nil for degraded
// fail-global mode (every event escalates to the global controller).
type rehomeEntry struct {
	local *Local
	// host is the surviving group carrying the replacement (-1 when the
	// partition fell back to the global controller).
	host int
	at   time.Time
}

// rehomeTable is the copy-on-write routing override consulted by
// routeFor. A new table is published atomically per failover so the
// event hot path never takes rehomeMu.
type rehomeTable struct {
	targets map[int]*rehomeEntry
}

// RehomeTarget describes one failed-over partition for operators
// (mboxctl controllers, /debug/controllers).
type RehomeTarget struct {
	// Group is the dead partition.
	Group int `json:"group"`
	// Target names the new home: "shard-NNN" or "global".
	Target string `json:"target"`
	// At is when re-homing completed.
	At time.Time `json:"at"`
}

// Rehomed reports a partition's re-home target, if it failed over.
func (h *Hierarchy) Rehomed(group int) (RehomeTarget, bool) {
	rt := h.rehomes.Load()
	if rt == nil {
		return RehomeTarget{}, false
	}
	ent, ok := rt.targets[group]
	if !ok {
		return RehomeTarget{}, false
	}
	return RehomeTarget{Group: group, Target: rehomeTargetName(ent.host), At: ent.at}, true
}

// rehomeTargetName renders a host group as the operator-facing name,
// matching the fleet rollup's shard naming.
func rehomeTargetName(host int) string {
	if host < 0 {
		return "global"
	}
	return fmt.Sprintf("shard-%03d", host)
}

// rehomeResult summarizes a completed re-home for the supervisor's
// journal events and failover history.
type rehomeResult struct {
	// Target is the new home's operator-facing name.
	Target string
	// Host is the adopting group (-1 = global).
	Host int
	// VarsRestored counts view variables seeded into the new home.
	VarsRestored int
	// EventsReplayed counts forensic-journal view-changes re-applied on
	// top of the checkpoint.
	EventsReplayed int
}

// rehome executes the deterministic re-homing protocol for a dead
// partition: rebuild its view from the latest checkpoint plus a replay
// of every view-change journaled after the checkpoint's sequence, then
// hand the partition to a surviving local (least-loaded, ties broken by
// group id) or to the global controller in fail-global mode. The caller
// (the supervisor) has already re-pushed quarantines — state restore
// runs strictly after the fail-closed step.
//
// j receives the partition-rehomed event; view-change replay always
// reads journal.Default because View.apply records there.
func (h *Hierarchy) rehome(ctx context.Context, group int, failGlobal bool, ck Checkpoint, j *journal.Journal, now time.Time) rehomeResult {
	h.rehomeMu.Lock()
	defer h.rehomeMu.Unlock()

	// Rebuild the orphan's variable set: checkpoint first, then replay
	// everything journaled after ck.Seq that falls in the partition's
	// scope. Overlap is harmless (Restore is idempotent); a missing
	// checkpoint (zero ck) replays the whole retained journal.
	vars := make(map[string]string, len(ck.Vars))
	for k, v := range ck.Vars {
		vars[k] = v
	}
	replayed := 0
	inGroup := h.varInGroup(group)
	for _, e := range journal.Default.Snapshot(journal.Filter{Type: journal.TypeViewChange}) {
		if e.Seq <= ck.Seq {
			continue
		}
		c, ok := parseViewChange(e.Detail)
		if !ok || !inGroup(c.Var) {
			continue
		}
		vars[c.Var] = c.Value
		replayed++
	}

	host := -1
	if !failGlobal {
		host = h.chooseHostLocked(group)
	}

	res := rehomeResult{Host: host, Target: rehomeTargetName(host), VarsRestored: len(vars), EventsReplayed: replayed}
	ent := &rehomeEntry{host: host, at: now}
	if host >= 0 {
		// Rebuild a replacement local from the retained rule subset, seed
		// it, publish routing, then reconcile once: events arriving after
		// the publish land on the replacement while it pushes deltas.
		repl := h.newLocalFor(group)
		version := repl.View.Restore(vars)
		repl.seedPostures(ck.Postures)
		ent.local = repl
		h.publishRehomeLocked(group, ent)
		h.adopted[host] += len(h.groupDevices(group))
		repl.reconcile(ctx, version)
	} else {
		// Degraded fail-global: the global controller runs the full
		// policy, so seeding the orphan's variables into the global view
		// and reconciling once makes it authoritative for the partition.
		version := h.Global.View.Restore(vars)
		h.publishRehomeLocked(group, ent)
		h.Global.reconcile(ctx, version)
	}

	if j == nil {
		j = journal.Default
	}
	j.Record(ctx, journal.TypeCtrlRehomed, journal.Warn, "",
		fmt.Sprintf("partition %d re-homed to %s: %d vars restored (%d replayed from journal after ckpt seq %d), %d postures seeded",
			group, res.Target, res.VarsRestored, res.EventsReplayed, ck.Seq, len(ck.Postures)))
	return res
}

// publishRehomeLocked installs a routing override copy-on-write.
// Callers hold rehomeMu.
func (h *Hierarchy) publishRehomeLocked(group int, ent *rehomeEntry) {
	old := h.rehomes.Load()
	next := &rehomeTable{targets: make(map[int]*rehomeEntry, 1)}
	if old != nil {
		for g, e := range old.targets {
			next.targets[g] = e
		}
	}
	next.targets[group] = ent
	h.rehomes.Store(next)
	mCtrlRehomed.Set(int64(len(next.targets)))
}

// chooseHostLocked picks the surviving group to adopt an orphaned
// partition: alive, not itself failed over, least loaded (own devices
// plus already-adopted ones), ties broken by lowest group id — a pure
// function of partitioning + failure history, so every run of the same
// failure sequence re-homes identically. Returns -1 when no survivor
// exists (the caller falls back to the global controller).
func (h *Hierarchy) chooseHostLocked(orphan int) int {
	rt := h.rehomes.Load()
	groups := make([]int, 0, len(h.locals))
	for g := range h.locals {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	best, bestLoad := -1, 0
	for _, g := range groups {
		if g == orphan {
			continue
		}
		if rt != nil {
			if _, failed := rt.targets[g]; failed {
				continue
			}
		}
		l := h.locals[g]
		if l == nil || !l.Alive() {
			continue
		}
		load := len(h.groupDevices(g)) + h.adopted[g]
		if best < 0 || load < bestLoad {
			best, bestLoad = g, load
		}
	}
	return best
}

// groupDevices returns a partition's device list (nil when out of
// range).
func (h *Hierarchy) groupDevices(group int) []string {
	if group < 0 || group >= len(h.partitioning.Groups) {
		return nil
	}
	return h.partitioning.Groups[group]
}

// varInGroup returns the test of whether a view variable belongs to a
// partition's recovery scope: its own devices' contexts, env vars its
// delegated rules reference, and env vars its devices report. The
// rule-referenced set is built once, here, from the retained rules.
func (h *Hierarchy) varInGroup(group int) func(varName string) bool {
	ruleVars := ruleEnvVars(h.localRules[group])
	return func(varName string) bool {
		if name, ok := strings.CutPrefix(varName, "dev:"); ok {
			return h.partitioning.GroupOf(name) == group
		}
		if name, ok := strings.CutPrefix(varName, "env:"); ok {
			if _, found := slices.BinarySearch(ruleVars, name); found {
				return true
			}
			if dev, ok := envVarReporter(name); ok {
				return h.partitioning.GroupOf(dev) == group
			}
		}
		return false
	}
}
