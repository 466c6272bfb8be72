package controller

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// Checkpoint is one partition's compact snapshot of critical security
// state — exactly the state §5.1 says cannot ride on weak consistency:
// the posture FSM inputs (view variables), the postures already
// enforced, the quarantine set, and the installed-profile generation.
// Recovery rebuilds a replacement controller from the latest
// checkpoint plus a forensic-journal replay of everything committed
// after Seq.
type Checkpoint struct {
	// Group is the partition the snapshot belongs to.
	Group int `json:"group"`
	// TakenAt is the supervisor-clock snapshot time.
	TakenAt time.Time `json:"taken_at"`
	// Seq is the forensic journal's append count at snapshot time,
	// captured BEFORE the view variables: any view-change journaled at
	// Seq or earlier is guaranteed to be reflected in Vars, so replaying
	// events with Seq' > Seq loses nothing (overlap re-applies
	// idempotently).
	Seq uint64 `json:"journal_seq"`
	// Version is the local view's store version at snapshot time.
	Version uint64 `json:"view_version"`
	// Vars holds the view variables ("dev:<name>"/"env:<name>" → value).
	Vars map[string]string `json:"vars"`
	// Postures holds the posture keys already pushed to enforcement
	// (device → policy.Posture.Key()), so a restored controller only
	// re-pushes deltas.
	Postures map[string]string `json:"postures"`
	// Quarantined lists devices under standing quarantine, sorted.
	// Recovery re-pushes these FIRST (fail-closed ordering).
	Quarantined []string `json:"quarantined,omitempty"`
	// ProfileGen is the installed-profile generation the enforcement
	// plane reported at snapshot time.
	ProfileGen uint64 `json:"profile_generation"`
}

// CheckpointLog is the bounded per-partition snapshot log the
// supervisor appends to on every checkpoint pass. Only the most recent
// checkpointKeep per partition are retained (recovery only ever needs
// the latest; the short history is for operators and artifacts).
type CheckpointLog struct {
	mu      sync.Mutex
	byGroup map[int][]Checkpoint // oldest first
}

const checkpointKeep = 4

// NewCheckpointLog builds an empty log.
func NewCheckpointLog() *CheckpointLog {
	return &CheckpointLog{byGroup: make(map[int][]Checkpoint)}
}

// Append stores one checkpoint, evicting the group's oldest beyond the
// retention cap.
func (l *CheckpointLog) Append(c Checkpoint) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cks := append(l.byGroup[c.Group], c)
	if len(cks) > checkpointKeep {
		cks = cks[len(cks)-checkpointKeep:]
	}
	l.byGroup[c.Group] = cks
}

// Latest returns a group's most recent checkpoint.
func (l *CheckpointLog) Latest(group int) (Checkpoint, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cks := l.byGroup[group]
	if len(cks) == 0 {
		return Checkpoint{}, false
	}
	return cks[len(cks)-1], true
}

// Snapshot returns every retained checkpoint ordered by group then
// age (oldest first) — the failover-snapshot.json artifact body.
func (l *CheckpointLog) Snapshot() []Checkpoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	groups := make([]int, 0, len(l.byGroup))
	for g := range l.byGroup {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	var out []Checkpoint
	for _, g := range groups {
		out = append(out, l.byGroup[g]...)
	}
	return out
}

// MarshalJSON renders the log as its checkpoint list.
func (l *CheckpointLog) MarshalJSON() ([]byte, error) {
	return json.Marshal(l.Snapshot())
}
