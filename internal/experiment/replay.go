package experiment

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"iotsec/internal/core"
	"iotsec/internal/device"
	"iotsec/internal/forensics"
	"iotsec/internal/ids"
	"iotsec/internal/journal"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
	"iotsec/internal/telemetry"
)

// ReplayResult is the verdict of re-driving one captured incident
// scenario (A13): did the same chain stages re-fire, on one trace,
// within the incident's SLO?
type ReplayResult struct {
	Incident string `json:"incident_id"`
	Kind     string `json:"kind"`
	Device   string `json:"device,omitempty"`
	// TraceID is the REPLAY's causal chain (a fresh trace, not the
	// original capture's).
	TraceID uint64 `json:"trace_id"`

	Expected []string `json:"expected_stages"`
	Observed []string `json:"observed_stages"`
	Missing  []string `json:"missing_stages,omitempty"`

	ElapsedSeconds float64 `json:"elapsed_seconds"`
	SLOSeconds     float64 `json:"slo_seconds"`
	WithinSLO      bool    `json:"within_slo"`
	// Recaptured reports a live capturer re-pinned the replayed chain
	// as an incident — the forensics plane closes over its own replays.
	Recaptured bool `json:"recaptured"`
	Passed     bool `json:"passed"`
	// Chain renders the replayed trace for human diffing against the
	// scenario's original events.
	Chain string `json:"chain,omitempty"`
	Error string `json:"error,omitempty"`
}

// kindOpeners maps an incident kind to its opening event type, for
// scenarios whose capture predates trigger extraction.
var kindOpeners = map[string]journal.Type{
	forensics.KindAnomaly:          journal.TypeAnomaly,
	forensics.KindProfileViolation: journal.TypeProfileViolation,
	forensics.KindRogueQuarantine:  journal.TypeRogueQuarantine,
	forensics.KindSLOBurn:          journal.TypeSLOBurn,
}

// RunReplay re-drives a captured incident as a regression check.
// Detection kinds rebuild a minimal protected deployment around the
// scenario's device, re-inject the trigger, and require every expected
// chain stage to re-fire on one trace within the SLO. Failover
// scenarios re-run a supervised controller kill and require the
// failover→rehomed→recovered chain to complete within the SLO.
func RunReplay(s *forensics.Scenario) (*ReplayResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Kind == forensics.KindFailover {
		return replayFailover(s)
	}
	return replayDetection(s)
}

// RunReplayFile loads a scenario document and replays it.
func RunReplayFile(path string) (*ReplayResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("experiment: replay: %w", err)
	}
	s, err := forensics.LoadScenario(b)
	if err != nil {
		return nil, err
	}
	return RunReplay(s)
}

// replayDetection rebuilds the smallest deployment that can re-close
// the loop: the scenario device behind the platform, a quarantine
// rule armed on suspicion, and a live southbound so the isolation
// reaches the wire as a FLOW_MOD.
func replayDetection(s *forensics.Scenario) (*ReplayResult, error) {
	res := &ReplayResult{
		Incident:   s.Incident,
		Kind:       s.Kind,
		Device:     s.Device,
		Expected:   append([]string(nil), s.ExpectedStages...),
		SLOSeconds: s.SLO().Seconds(),
	}

	d := policy.NewDomain()
	d.AddDevice(s.Device, policy.ContextNormal, policy.ContextSuspicious, policy.ContextCompromised)
	f := policy.NewFSM(d)
	f.AddRule(policy.Rule{
		Name:     "replay-baseline-" + s.Device,
		Device:   s.Device,
		Posture:  policy.Posture{Modules: []policy.ModuleSpec{{Kind: "stateful-fw"}}},
		Priority: 1,
	})
	f.AddRule(policy.Rule{
		Name:       "replay-quarantine-" + s.Device,
		Conditions: []policy.Condition{policy.DeviceIs(s.Device, policy.ContextSuspicious)},
		Device:     s.Device,
		Posture:    policy.Posture{Isolate: true},
		Priority:   10,
	})
	prot, err := newProtectedLab(f)
	if err != nil {
		return nil, err
	}
	defer prot.stop()
	victim := device.NewCamera(s.Device, packet.MustParseIPv4("10.0.0.30"))
	if _, err := prot.platform.AddDevice(victim.Device); err != nil {
		return nil, err
	}
	sb, err := prot.platform.AttachSouthbound(core.SouthboundOptions{})
	if err != nil {
		return nil, err
	}
	defer sb.Close()
	prot.platform.Start()
	sb.Steering.WaitForSwitch(2 * time.Second)
	capt := prot.platform.EnableForensics(forensics.Options{Shard: "replay"})
	defer capt.Close()

	// Re-inject the trigger and drive the view, on one fresh trace —
	// the same shape the live detectors produce.
	trigger := s.Trigger.Type
	if trigger == "" {
		trigger = kindOpeners[s.Kind]
	}
	detail := s.Trigger.Detail
	if detail == "" {
		detail = "replay of " + s.Incident
	}
	sev := journal.Warn
	if s.Kind == forensics.KindRogueQuarantine {
		sev = journal.Critical
	}
	ctx, span := telemetry.StartSpan(context.Background(), "experiment.replay")
	res.TraceID = telemetry.TraceID(ctx)
	start := time.Now()
	journal.Record(ctx, trigger, sev, s.Device, detail)
	if trigger != journal.TypeAnomaly {
		// Detection kinds imply an anomaly (profile violations escalate
		// through the anomaly path); re-journal it so the detect stage
		// re-fires exactly as in the original chain.
		journal.Record(ctx, journal.TypeAnomaly, journal.Warn, s.Device,
			fmt.Sprintf("replay: %s (score 1.00)", detail))
	}
	prot.platform.Global.View.HandleAnomaly(ctx, ids.Anomaly{
		Device: s.Device,
		Kind:   ids.AnomalyProfile,
		Detail: "replay of " + s.Incident,
		Score:  1,
		When:   start,
	})
	span.End()

	res.WithinSLO = waitUntil(func() bool {
		return len(missingStages(res.TraceID, res.Expected)) == 0
	}, s.SLO())
	res.ElapsedSeconds = time.Since(start).Seconds()
	res.Missing = missingStages(res.TraceID, res.Expected)
	res.Observed = observedStages(res.TraceID)
	if tl := journal.Reconstruct(journal.Default.Snapshot(journal.Filter{TraceID: res.TraceID}), res.TraceID); tl != nil {
		res.Chain = tl.Chain()
	}
	capt.Sync()
	_, res.Recaptured = capt.Get(forensics.IncidentID(res.TraceID))
	res.Passed = res.WithinSLO && len(res.Missing) == 0
	if !res.Passed {
		res.Error = fmt.Sprintf("missing stages %v after %.3fs (SLO %.3fs)",
			res.Missing, res.ElapsedSeconds, res.SLOSeconds)
	}
	return res, nil
}

// replayFailover re-drives a supervised controller kill and holds it
// to the scenario's SLO.
func replayFailover(s *forensics.Scenario) (*ReplayResult, error) {
	res := &ReplayResult{
		Incident:   s.Incident,
		Kind:       s.Kind,
		Expected:   append([]string(nil), s.ExpectedStages...),
		SLOSeconds: s.SLO().Seconds(),
	}
	start := time.Now()
	_, results, err := RunFailover(FailoverOptions{
		Sizes:       []int{256},
		KillShards:  1,
		RecoverySLO: s.SLO(),
	})
	res.ElapsedSeconds = time.Since(start).Seconds()
	if len(results) > 0 {
		r := results[len(results)-1]
		if len(r.Records) > 0 {
			res.TraceID = r.Records[0].TraceID
		}
		res.WithinSLO = r.WithinSLO
		if r.TracesComplete {
			res.Observed = append([]string(nil), res.Expected...)
		} else {
			res.Missing = missingStages(res.TraceID, res.Expected)
			res.Observed = observedStages(res.TraceID)
		}
		res.Passed = err == nil && r.WithinSLO && r.TracesComplete
	}
	if err != nil {
		res.Error = err.Error()
	} else if !res.Passed {
		res.Error = fmt.Sprintf("failover chain incomplete or over SLO (missing %v)", res.Missing)
	}
	return res, nil
}

// RunA13 is the self-contained A13 drill (iotsim -exp a13): a live
// deployment suffers a real anomaly, the forensics plane seals the
// chain into a durable store, the incident exports as a scenario, the
// scenario round-trips through JSON (the mboxctl-export / iotsim-replay
// wire format), and replaying it must re-fire every chain stage on a
// fresh trace within the captured SLO. A second row re-drives a
// controller-failover scenario through the A12 harness.
func RunA13(progress io.Writer) (*Table, error) {
	t := &Table{
		ID:    "A13",
		Title: "incident forensics: capture -> seal -> export -> replay",
		Columns: []string{"scenario", "kind", "captured", "stages", "replay_trace",
			"elapsed", "slo", "recaptured", "verdict"},
	}

	// Row 1: detection round trip on a live capture.
	const dev = "cam"
	d := policy.NewDomain()
	d.AddDevice(dev, policy.ContextNormal, policy.ContextSuspicious, policy.ContextCompromised)
	f := policy.NewFSM(d)
	f.AddRule(policy.Rule{
		Name:     "a13-baseline-" + dev,
		Device:   dev,
		Posture:  policy.Posture{Modules: []policy.ModuleSpec{{Kind: "stateful-fw"}}},
		Priority: 1,
	})
	f.AddRule(policy.Rule{
		Name:       "a13-quarantine-" + dev,
		Conditions: []policy.Condition{policy.DeviceIs(dev, policy.ContextSuspicious)},
		Device:     dev,
		Posture:    policy.Posture{Isolate: true},
		Priority:   10,
	})
	loaded, err := func() (*forensics.Scenario, error) {
		prot, err := newProtectedLab(f)
		if err != nil {
			return nil, err
		}
		defer prot.stop()
		victim := device.NewCamera(dev, packet.MustParseIPv4("10.0.0.30"))
		if _, err := prot.platform.AddDevice(victim.Device); err != nil {
			return nil, err
		}
		sb, err := prot.platform.AttachSouthbound(core.SouthboundOptions{})
		if err != nil {
			return nil, err
		}
		defer sb.Close()
		prot.platform.Start()
		sb.Steering.WaitForSwitch(2 * time.Second)
		dir, err := os.MkdirTemp("", "iotsec-a13-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		store, err := forensics.OpenStore(dir, forensics.StoreOptions{})
		if err != nil {
			return nil, err
		}
		defer store.Close()
		capt := prot.platform.EnableForensics(forensics.Options{
			Store: store, Shard: "a13", Quiet: 100 * time.Millisecond,
		})
		defer capt.Close()
		prot.platform.ReportAnomaly(ids.Anomaly{
			Device: dev, Kind: ids.AnomalyRate, Detail: "a13 beacon burst", Score: 0.99,
		})
		var inc *forensics.Incident
		if !waitUntil(func() bool {
			capt.Sync()
			for _, dg := range store.Digests() {
				if dg.Device == dev {
					inc, _ = store.Get(dg.ID)
					return inc != nil
				}
			}
			return false
		}, 5*time.Second) {
			return nil, fmt.Errorf("a13: incident never sealed (capturer %+v)", capt.Stats())
		}
		// Round-trip through the on-disk wire format.
		b, err := json.Marshal(forensics.ExportScenario(inc, 0))
		if err != nil {
			return nil, err
		}
		return forensics.LoadScenario(b)
	}()
	if err != nil {
		return nil, err
	}
	if progress != nil {
		fmt.Fprintf(progress, "a13: captured %s incident %s, replaying (SLO %.1fs)\n",
			loaded.Kind, loaded.Incident, loaded.SLOSeconds)
	}
	res, err := RunReplay(loaded)
	if err != nil {
		return nil, err
	}
	addReplayRow(t, "live capture round-trip", res)

	// Row 2: failover chain through the A12 harness.
	fo := &forensics.Scenario{
		Version:    forensics.ScenarioVersion,
		Incident:   "inc-a13-failover-drill",
		Kind:       forensics.KindFailover,
		SLOSeconds: 5,
		ExpectedStages: []string{
			string(journal.TypeCtrlFailover),
			string(journal.TypeCtrlRehomed),
			string(journal.TypeCtrlRecovered),
		},
	}
	if progress != nil {
		fmt.Fprintf(progress, "a13: replaying failover scenario via the A12 harness\n")
	}
	fres, err := RunReplay(fo)
	if err != nil {
		return nil, err
	}
	addReplayRow(t, "failover re-drive", fres)
	t.Note("replay runs on a fresh trace; verdict FAIL on any missing chain stage or SLO miss")
	t.Note("exported scenarios replay standalone: mboxctl incidents export -o f.json <id> && iotsim -replay f.json")
	if !res.Passed || !fres.Passed {
		return t, fmt.Errorf("a13: replay failed (detection passed=%v, failover passed=%v)", res.Passed, fres.Passed)
	}
	return t, nil
}

func addReplayRow(t *Table, label string, r *ReplayResult) {
	verdict := "PASS"
	if !r.Passed {
		verdict = "FAIL"
	}
	t.AddRow(label, r.Kind, r.Incident,
		fmt.Sprintf("%d/%d", len(r.Expected)-len(r.Missing), len(r.Expected)),
		r.TraceID, fmtSeconds(r.ElapsedSeconds), fmtSeconds(r.SLOSeconds),
		r.Recaptured, verdict)
}

// stagesOf reduces a trace's journal events to the stage/type labels a
// scenario's expected-stage list speaks in: the Figure 2 stage bucket
// for pipeline events, the literal event type for everything else
// (failover chains are expressed as event types).
func stagesOf(traceID uint64) map[string]bool {
	got := make(map[string]bool)
	if traceID == 0 {
		return got
	}
	for _, e := range journal.Default.Snapshot(journal.Filter{TraceID: traceID}) {
		got[string(e.Type)] = true
		if stage := journal.Stage(e.Type); stage != "other" {
			got[stage] = true
		}
	}
	return got
}

// missingStages lists expected stages the trace has not yet fired.
func missingStages(traceID uint64, expected []string) []string {
	got := stagesOf(traceID)
	var missing []string
	for _, want := range expected {
		if !got[want] {
			missing = append(missing, want)
		}
	}
	return missing
}

// observedStages lists the trace's fired stage buckets in first-fire
// order.
func observedStages(traceID uint64) []string {
	if traceID == 0 {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	for _, e := range journal.Default.Snapshot(journal.Filter{TraceID: traceID}) {
		stage := journal.Stage(e.Type)
		if stage == "other" {
			stage = string(e.Type)
		}
		if !seen[stage] {
			seen[stage] = true
			out = append(out, stage)
		}
	}
	return out
}
