package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/device"
	"iotsec/internal/journal"
	"iotsec/internal/policy"
)

// FailoverOptions parameterizes the control-plane failover chaos
// harness (A12).
type FailoverOptions struct {
	// Sizes lists the fleet sizes to sweep (default 1e3, 1e4, 1e5).
	Sizes []int
	// ShardSize is the devices-per-local-controller cap (default 64).
	ShardSize int
	// KillShards is how many local controllers are crashed
	// mid-quarantine (default 3, clamped to shards-1 so a survivor
	// exists).
	KillShards int
	// FailMode selects re-home vs fail-global (default re-home).
	FailMode controller.FailMode
	// RecoverySLO is the per-partition recovery objective the measured
	// p99 is judged against (default 1s).
	RecoverySLO time.Duration
	// Progress, when set, receives one line as each size completes.
	Progress io.Writer
}

// FailoverResult is one fleet size's chaos outcome.
type FailoverResult struct {
	Size     int                 `json:"size"`
	Shards   int                 `json:"shards"`
	Killed   int                 `json:"killed"`
	FailMode controller.FailMode `json:"fail_mode"`

	// Quarantined is the standing quarantine intent across killed
	// shards (pre- and post-checkpoint installs).
	Quarantined int `json:"quarantined"`
	// QuarantinesRepushed sums the fail-closed re-pushes across
	// failovers (must cover the checkpoint ∪ readback union).
	QuarantinesRepushed int `json:"quarantines_repushed"`
	// VarsRestored / EventsReplayed sum the state rebuild across
	// failovers.
	VarsRestored   int `json:"vars_restored"`
	EventsReplayed int `json:"events_replayed"`

	// WindowFrames were pumped at quarantined devices between the crash
	// and the last recovery; ViolatingFrames is how many got through
	// (the acceptance bar is 0).
	WindowFrames    uint64 `json:"window_frames"`
	ViolatingFrames uint64 `json:"violating_frames"`

	// DetectSeconds is crash → last recovery-complete (includes the
	// deadman detection window); RecoveryP99Seconds is the p99 of the
	// per-partition detection→recovery MTTR.
	DetectSeconds      float64 `json:"detect_seconds"`
	RecoveryP99Seconds float64 `json:"recovery_p99_seconds"`
	WithinSLO          bool    `json:"within_slo"`

	// TracesComplete reports every failover journaled
	// controller-failover → partition-rehomed → recovery-complete in
	// order on one trace.
	TracesComplete bool `json:"traces_complete"`
	// StateMatch reports the post-recovery enforcement state
	// (per-device postures + switch-resident quarantine drops) is
	// byte-identical to a never-failed control run of the same event
	// sequence.
	StateMatch  bool   `json:"state_match"`
	Fingerprint string `json:"fingerprint"`
	ControlFP   string `json:"control_fingerprint"`
	// FailedOverShards is what the fleet rollup view surfaces.
	FailedOverShards int `json:"failed_over_shards"`

	Records []controller.FailoverRecord `json:"records"`
}

// RunFailover (A12) kills local controllers mid-quarantine at fleet
// scale and proves bounded-MTTR recovery: no frame reaches a
// quarantined device during the failover window, re-homing completes
// within the recovery SLO, and post-recovery enforcement state is
// byte-equal to a control run that never failed.
func RunFailover(o FailoverOptions) (*Table, []FailoverResult, error) {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{1_000, 10_000, 100_000}
	}
	if o.ShardSize <= 0 {
		o.ShardSize = 64
	}
	if o.KillShards <= 0 {
		o.KillShards = 3
	}
	if o.FailMode == "" {
		o.FailMode = controller.FailModeRehome
	}
	if o.RecoverySLO <= 0 {
		o.RecoverySLO = time.Second
	}

	t := &Table{
		ID:    "A12",
		Title: fmt.Sprintf("Control-plane failover: %d locals killed mid-quarantine (%s, shard %d)", o.KillShards, o.FailMode, o.ShardSize),
		Columns: []string{
			"Devices", "Shards", "Killed", "Quarantined", "Re-pushed",
			"Replayed", "Window frames", "Violations", "Recovery p99", "State",
		},
	}
	var results []FailoverResult
	for _, size := range o.Sizes {
		if size <= 0 {
			return nil, nil, fmt.Errorf("experiment: failover fleet size %d", size)
		}
		control, err := runFailoverOnce(size, o, false)
		if err != nil {
			return nil, nil, err
		}
		r, err := runFailoverOnce(size, o, true)
		if err != nil {
			return nil, nil, err
		}
		r.ControlFP = control.Fingerprint
		r.StateMatch = r.Fingerprint == control.Fingerprint
		results = append(results, r)
		state := "MATCH"
		if !r.StateMatch {
			state = "DIVERGED"
		}
		t.AddRow(r.Size, r.Shards, r.Killed, r.Quarantined, r.QuarantinesRepushed,
			r.EventsReplayed, r.WindowFrames, r.ViolatingFrames,
			fmtSeconds(r.RecoveryP99Seconds), state)
		if o.Progress != nil {
			fmt.Fprintf(o.Progress, "failover %d: %d shards killed, %d quarantines re-pushed, %d/%d window frames leaked, recovery p99 %s, state %s\n",
				r.Size, r.Killed, r.QuarantinesRepushed, r.ViolatingFrames, r.WindowFrames,
				fmtSeconds(r.RecoveryP99Seconds), state)
		}
		if r.ViolatingFrames > 0 {
			return t, results, fmt.Errorf("experiment: failover %d: %d frames delivered to quarantined devices during the failover window", size, r.ViolatingFrames)
		}
		if !r.StateMatch {
			return t, results, fmt.Errorf("experiment: failover %d: post-recovery state diverged from control run (%s != %s)", size, r.Fingerprint, r.ControlFP)
		}
		if !r.WithinSLO {
			return t, results, fmt.Errorf("experiment: failover %d: recovery p99 %.3fs over SLO %s", size, r.RecoveryP99Seconds, o.RecoverySLO)
		}
		if !r.TracesComplete {
			return t, results, fmt.Errorf("experiment: failover %d: incomplete failover journal trace", size)
		}
	}
	t.Note("every row is a chaos run: quarantines installed, checkpoint taken, more quarantines installed, then locals crashed")
	t.Note("Violations counts frames reaching quarantined devices between crash and recovery-complete (bar: 0)")
	t.Note("State compares post-recovery postures + switch-resident drops against a never-failed control run (byte equality)")
	return t, results, nil
}

// quarLedger models the switches' flow tables and data plane: a
// quarantine drop, once installed, keeps dropping frames regardless of
// controller health (switch-resident state survives the control
// plane). Frames pumped at a device with quarantine *intent* but no
// installed drop are violations.
type quarLedger struct {
	mu         sync.Mutex
	drops      map[string]bool
	intent     map[string]bool
	frames     uint64
	violations uint64
}

func newQuarLedger() *quarLedger {
	return &quarLedger{drops: make(map[string]bool), intent: make(map[string]bool)}
}

func (l *quarLedger) Install(dev string) {
	l.mu.Lock()
	l.drops[dev] = true
	l.mu.Unlock()
}

func (l *quarLedger) Remove(dev string) {
	l.mu.Lock()
	delete(l.drops, dev)
	l.mu.Unlock()
}

func (l *quarLedger) SetIntent(dev string) {
	l.mu.Lock()
	l.intent[dev] = true
	l.mu.Unlock()
}

// Frame delivers one frame toward dev: dropped if a quarantine rule is
// installed, a violation if the device should be quarantined but the
// rule is missing.
func (l *quarLedger) Frame(dev string) {
	l.mu.Lock()
	l.frames++
	if !l.drops[dev] && l.intent[dev] {
		l.violations++
	}
	l.mu.Unlock()
}

func (l *quarLedger) Installed() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.drops))
	for dev := range l.drops {
		out = append(out, dev)
	}
	sort.Strings(out)
	return out
}

func (l *quarLedger) Stats() (frames, violations uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frames, l.violations
}

// runFailoverOnce drives one fleet through the quarantine + crash
// scenario. kill=false is the control run: identical event sequence,
// no crash, no supervisor — its final enforcement state is the
// byte-equality reference.
func runFailoverOnce(n int, o FailoverOptions, kill bool) (FailoverResult, error) {
	devs := make([]string, n)
	d := policy.NewDomain()
	f := policy.NewFSM(d)
	for i := range devs {
		devs[i] = fmt.Sprintf("dev%06d", i)
		d.AddDevice(devs[i], policy.ContextNormal, policy.ContextSuspicious)
		d.AddEnvVar(devs[i]+"_attr", "a", "b", "q")
		// Fully local rules: attr=b blocks commands, attr=q quarantines.
		// Nothing escalates, so the global controller stays quiescent and
		// the crash/recovery path is isolated to the partition tier.
		f.AddRule(policy.Rule{
			Name:       "local-" + devs[i],
			Conditions: []policy.Condition{policy.EnvIs(devs[i]+"_attr", "b")},
			Device:     devs[i],
			Posture:    policy.Posture{BlockCommands: []string{"ON"}},
			Priority:   5,
		})
		f.AddRule(policy.Rule{
			Name:       "quar-" + devs[i],
			Conditions: []policy.Condition{policy.EnvIs(devs[i]+"_attr", "q")},
			Device:     devs[i],
			Posture:    policy.Posture{Isolate: true},
			Priority:   9,
		})
	}
	edges := make([]controller.InteractionEdge, 0, n)
	for i, dev := range devs {
		if anchor := i - i%o.ShardSize; anchor != i {
			edges = append(edges, controller.InteractionEdge{A: devs[anchor], B: dev, Weight: 1})
		}
	}
	part := controller.Partition(devs, edges, o.ShardSize)
	envLocality := make(map[string]int, n)
	for _, dev := range devs {
		envLocality[dev+"_attr"] = part.GroupOf(dev)
	}

	ledger := newQuarLedger()
	var postureMu sync.Mutex
	lastPosture := make(map[string]string, n)
	sink := func(ctx context.Context, dev string, p policy.Posture, _ uint64) {
		postureMu.Lock()
		lastPosture[dev] = p.Key()
		postureMu.Unlock()
		if p.Isolate {
			ledger.Install(dev)
		} else {
			ledger.Remove(dev)
		}
	}

	h := controller.NewHierarchy(f, part, envLocality, sink)
	h.EnableFleetStats()
	agg := h.Global.Fleet()

	res := FailoverResult{Size: n, Shards: h.Locals(), FailMode: o.FailMode}

	// Victims: the lowest KillShards partitions, leaving at least one
	// survivor for re-homing.
	killCount := o.KillShards
	if killCount > h.Locals()-1 {
		killCount = h.Locals() - 1
	}
	if killCount < 1 {
		return res, fmt.Errorf("experiment: failover needs ≥2 shards, got %d", h.Locals())
	}
	victims := make([]int, 0, killCount)
	for g := 0; g < len(part.Groups) && len(victims) < killCount; g++ {
		if h.LocalFor(g) != nil {
			victims = append(victims, g)
		}
	}
	var mu sync.Mutex
	var records []controller.FailoverRecord
	recovered := make(chan struct{}, killCount)
	sup := h.Supervise(controller.SupervisorOptions{
		Heartbeat:       2 * time.Millisecond,
		Misses:          2,
		CheckpointEvery: -1, // harness checkpoints explicitly
		FailMode:        o.FailMode,
		Fleet:           agg,
		QuarantinedOf: func(group int) []string {
			var out []string
			ledger.mu.Lock()
			for dev := range ledger.intent {
				if part.GroupOf(dev) == group {
					out = append(out, dev)
				}
			}
			ledger.mu.Unlock()
			sort.Strings(out)
			return out
		},
		ReadbackQuarantines: func(group int) []string {
			var out []string
			for _, dev := range ledger.Installed() {
				if part.GroupOf(dev) == group {
					out = append(out, dev)
				}
			}
			return out
		},
		RepushQuarantine: func(_ context.Context, dev string) { ledger.Install(dev) },
		OnFailover: func(r controller.FailoverRecord) {
			mu.Lock()
			records = append(records, r)
			mu.Unlock()
			select {
			case recovered <- struct{}{}:
			default:
			}
		},
	})

	// Phase 1: every device reports attr=b → Block posture everywhere.
	ctx := context.Background()
	for _, dev := range devs {
		h.HandleDeviceEvent(ctx, device.Event{Device: dev, Kind: device.EventStateChange, Detail: "attr=b"})
	}
	// Phase 2: quarantine the first quarter of each victim shard, then
	// checkpoint — this state travels via snapshot.
	quarantine := func(dev string) {
		ledger.SetIntent(dev)
		h.HandleDeviceEvent(ctx, device.Event{Device: dev, Kind: device.EventStateChange, Detail: "attr=q"})
	}
	for _, g := range victims {
		grp := part.Groups[g]
		for i := 0; i < len(grp)/4; i++ {
			quarantine(grp[i])
		}
	}
	sup.Checkpoint()
	// Phase 3 (post-checkpoint, travels via journal replay): a second
	// quarantine wave plus attr flips in the victim shards.
	for _, g := range victims {
		grp := part.Groups[g]
		for i := len(grp) / 4; i < len(grp)/2; i++ {
			quarantine(grp[i])
		}
		for i := len(grp) / 2; i < 3*len(grp)/4; i++ {
			h.HandleDeviceEvent(ctx, device.Event{Device: grp[i], Kind: device.EventStateChange, Detail: "attr=a"})
		}
	}
	ledger.mu.Lock()
	res.Quarantined = len(ledger.intent)
	ledger.mu.Unlock()

	if kill {
		// Crash mid-quarantine: drops for both waves are on the switches;
		// the controllers holding the state that installed them die.
		preFrames, _ := ledger.Stats()
		crashAt := time.Now()
		for _, g := range victims {
			h.LocalFor(g).Kill()
		}
		// Pump frames at every quarantined device while the deadman
		// detects and recovery runs: the switch-resident drops must hold
		// the line the whole window.
		stopPump := make(chan struct{})
		var pumpWG sync.WaitGroup
		pumpWG.Add(1)
		go func() {
			defer pumpWG.Done()
			ledger.mu.Lock()
			targets := make([]string, 0, len(ledger.intent))
			for dev := range ledger.intent {
				targets = append(targets, dev)
			}
			ledger.mu.Unlock()
			sort.Strings(targets)
			for {
				select {
				case <-stopPump:
					return
				default:
				}
				for _, dev := range targets {
					ledger.Frame(dev)
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()

		deadline := time.NewTimer(10 * time.Second)
		defer deadline.Stop()
		poll := time.NewTimer(time.Millisecond)
		defer poll.Stop()
		for done := 0; done < len(victims); {
			sup.Tick()
			select {
			case <-recovered:
				done++
			case <-deadline.C:
				close(stopPump)
				pumpWG.Wait()
				return res, fmt.Errorf("experiment: failover %d: only %d/%d partitions recovered in 10s", n, done, len(victims))
			case <-poll.C:
				poll.Reset(time.Millisecond)
			}
		}
		res.DetectSeconds = time.Since(crashAt).Seconds()
		close(stopPump)
		pumpWG.Wait()
		frames, violations := ledger.Stats()
		res.WindowFrames = frames - preFrames
		res.ViolatingFrames = violations
	}

	mu.Lock()
	res.Records = append([]controller.FailoverRecord(nil), records...)
	mu.Unlock()
	res.Killed = len(res.Records)
	recoveries := make([]float64, 0, len(res.Records))
	res.TracesComplete = true
	for _, r := range res.Records {
		res.QuarantinesRepushed += r.QuarantinesRepushed
		res.VarsRestored += r.VarsRestored
		res.EventsReplayed += r.EventsReplayed
		recoveries = append(recoveries, r.Recovery.Seconds())
		if r.TraceID == 0 || !journal.FailoverClosed(journal.Default.Snapshot(journal.Filter{TraceID: r.TraceID})) {
			res.TracesComplete = false
		}
	}
	sort.Float64s(recoveries)
	if len(recoveries) > 0 {
		res.RecoveryP99Seconds = recoveries[(len(recoveries)*99)/100]
	}
	res.WithinSLO = res.RecoveryP99Seconds <= o.RecoverySLO.Seconds()
	res.FailedOverShards = agg.View().Fleet.FailedOverShards
	res.Fingerprint = enforcementFingerprint(devs, lastPosture, &postureMu, ledger)
	if !kill {
		// Control runs have no failovers by construction.
		res.TracesComplete = true
		res.WithinSLO = true
	}
	return res, nil
}

// enforcementFingerprint hashes the externally observable enforcement
// state: each device's last delivered posture key plus the sorted
// switch-resident quarantine drops. Byte equality of two runs means
// recovery reconverged exactly.
func enforcementFingerprint(devs []string, lastPosture map[string]string, mu *sync.Mutex, ledger *quarLedger) string {
	var b strings.Builder
	mu.Lock()
	for _, dev := range devs {
		b.WriteString(dev)
		b.WriteByte('=')
		b.WriteString(lastPosture[dev])
		b.WriteByte('\n')
	}
	mu.Unlock()
	b.WriteString("drops:")
	for _, dev := range ledger.Installed() {
		b.WriteByte(' ')
		b.WriteString(dev)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
