package experiment

import (
	"encoding/json"
	"testing"
	"time"

	"iotsec/internal/core"
	"iotsec/internal/device"
	"iotsec/internal/forensics"
	"iotsec/internal/ids"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
)

// TestReplayRoundTrip is the A13 loop end to end: a live deployment
// suffers an anomaly, the forensics plane captures and seals the
// chain, the sealed incident exports as a scenario, and replaying the
// scenario re-fires every chain stage within the SLO.
func TestReplayRoundTrip(t *testing.T) {
	const dev = "cam"
	d := policy.NewDomain()
	d.AddDevice(dev, policy.ContextNormal, policy.ContextSuspicious, policy.ContextCompromised)
	f := policy.NewFSM(d)
	f.AddRule(policy.Rule{
		Name:     "baseline-" + dev,
		Device:   dev,
		Posture:  policy.Posture{Modules: []policy.ModuleSpec{{Kind: "stateful-fw"}}},
		Priority: 1,
	})
	f.AddRule(policy.Rule{
		Name:       "quarantine-" + dev,
		Conditions: []policy.Condition{policy.DeviceIs(dev, policy.ContextSuspicious)},
		Device:     dev,
		Posture:    policy.Posture{Isolate: true},
		Priority:   10,
	})
	prot, err := newProtectedLab(f)
	if err != nil {
		t.Fatal(err)
	}
	defer prot.stop()
	victim := device.NewCamera(dev, packet.MustParseIPv4("10.0.0.30"))
	if _, err := prot.platform.AddDevice(victim.Device); err != nil {
		t.Fatal(err)
	}
	sb, err := prot.platform.AttachSouthbound(core.SouthboundOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	prot.platform.Start()
	if !sb.Steering.WaitForSwitch(2 * time.Second) {
		t.Fatal("southbound switch never connected")
	}

	store, err := forensics.OpenStore(t.TempDir(), forensics.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	capt := prot.platform.EnableForensics(forensics.Options{
		Store: store,
		Shard: "shard-test",
		Quiet: 100 * time.Millisecond,
	})
	defer capt.Close()

	// The real incident: a rate anomaly that quarantines the camera.
	prot.platform.ReportAnomaly(ids.Anomaly{
		Device: dev, Kind: ids.AnomalyRate, Detail: "beacon burst", Score: 0.99,
	})

	// Wait for the chain to seal into the durable store.
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
		t.Fatalf("incident never sealed; capturer stats %+v", capt.Stats())
	}
	if !inc.Complete {
		t.Fatalf("captured chain incomplete: %+v", inc.Timeline().Chain())
	}

	// Export, round-trip through JSON (what mboxctl incidents export
	// writes and iotsim -replay reads), and validate.
	sc := forensics.ExportScenario(inc, 0)
	b, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := forensics.LoadScenario(b)
	if err != nil {
		t.Fatalf("exported scenario does not load: %v", err)
	}
	if loaded.Device != dev || loaded.Kind != forensics.KindAnomaly {
		t.Fatalf("scenario identity wrong: %s/%s", loaded.Device, loaded.Kind)
	}
	hasStage := func(stages []string, want string) bool {
		for _, s := range stages {
			if s == want {
				return true
			}
		}
		return false
	}
	for _, want := range []string{"detect", "policy"} {
		if !hasStage(loaded.ExpectedStages, want) {
			t.Fatalf("expected stages %v missing %q", loaded.ExpectedStages, want)
		}
	}

	// Replay: the same stages must re-fire, on a fresh trace, in SLO.
	res, err := RunReplay(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("replay failed: %s (observed %v)", res.Error, res.Observed)
	}
	if !res.WithinSLO {
		t.Fatalf("replay blew the SLO: %.3fs > %.3fs", res.ElapsedSeconds, res.SLOSeconds)
	}
	if res.TraceID == 0 || res.TraceID == inc.TraceID {
		t.Fatalf("replay trace %d must be fresh (original %d)", res.TraceID, inc.TraceID)
	}
	if !res.Recaptured {
		t.Fatal("replayed chain was not re-captured by the replay deployment's forensics plane")
	}
	if len(res.Missing) != 0 {
		t.Fatalf("missing stages after replay: %v", res.Missing)
	}
}

// TestReplayFailoverScenario: a controller-failover scenario re-drives
// a supervised kill and completes the recovery chain within the SLO.
func TestReplayFailoverScenario(t *testing.T) {
	sc := &forensics.Scenario{
		Version:    forensics.ScenarioVersion,
		Incident:   "inc-00000000000000aa",
		Kind:       forensics.KindFailover,
		SLOSeconds: 5,
		ExpectedStages: []string{
			"controller-failover", "partition-rehomed", "recovery-complete",
		},
	}
	// Guard against drift between the literal stage names above and
	// the exporter's canonical list.
	if exp := forensics.ExportScenario(&forensics.Incident{
		ID: sc.Incident, Kind: forensics.KindFailover,
	}, 0); len(exp.ExpectedStages) != len(sc.ExpectedStages) {
		t.Fatalf("exporter failover stages %v; update this test", exp.ExpectedStages)
	}
	res, err := RunReplay(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed || !res.WithinSLO {
		t.Fatalf("failover replay failed: %+v", res)
	}
	if res.TraceID == 0 {
		t.Fatal("failover replay did not surface the recovery trace")
	}
}

// TestReplayRejectsInvalid: malformed scenarios fail fast, before any
// deployment is built.
func TestReplayRejectsInvalid(t *testing.T) {
	if _, err := RunReplay(&forensics.Scenario{Version: 99}); err == nil {
		t.Fatal("wrong-version scenario accepted")
	}
	if _, err := RunReplayFile("/nonexistent/scenario.json"); err == nil {
		t.Fatal("missing scenario file accepted")
	}
}
