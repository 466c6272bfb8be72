package core

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/device"
	"iotsec/internal/ids"
	"iotsec/internal/journal"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
)

// tracePlatform builds a one-device deployment whose policy isolates
// the wemo plug the moment it turns suspicious, with a real southbound
// steering application attached to the uplink switch.
func tracePlatform(t *testing.T) (*Platform, *controller.Steering) {
	t.Helper()
	d := policy.NewDomain()
	d.AddDevice("wemo", policy.ContextNormal, policy.ContextSuspicious)
	f := policy.NewFSM(d)
	f.AddRule(policy.Rule{
		Name:       "quarantine-wemo-suspicious",
		Conditions: []policy.Condition{policy.DeviceIs("wemo", policy.ContextSuspicious)},
		Device:     "wemo",
		Posture:    policy.Posture{Isolate: true},
		Priority:   100,
	})
	p, err := New(Options{Policy: f})
	if err != nil {
		t.Fatal(err)
	}
	plug := device.NewCamera("wemo", packet.MustParseIPv4("10.0.0.31")).Device
	if _, err := p.AddDevice(plug); err != nil {
		t.Fatal(err)
	}
	p.Start()
	t.Cleanup(p.Stop)

	s := controller.NewSteering(nil)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	agent, err := netsim.ConnectAgent(p.Switch, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Stop)
	p.UseSteering(s)

	// Wait for the southbound handshake so quarantine FLOW_MODs have a
	// switch to land on.
	deadline := time.Now().Add(3 * time.Second)
	for !strings.Contains(s.String(), "1 switches") {
		if time.Now().After(deadline) {
			t.Fatalf("switch never registered: %s", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return p, s
}

// TestAnomalyTraceClosesFigure2Loop is the acceptance check for the
// forensic journal: a single injected anomaly must yield one trace ID
// whose journal timeline contains, in causal order, the anomaly, the
// FSM posture transition, at least one FLOW_MOD, and the µmbox
// reconfiguration — and the FLOW_MOD application on the far side of
// the OpenFlow wire must carry the same trace ID.
func TestAnomalyTraceClosesFigure2Loop(t *testing.T) {
	p, _ := tracePlatform(t)

	p.ReportAnomaly(ids.Anomaly{
		Device: "wemo",
		Kind:   ids.AnomalyRate,
		Detail: "synthetic: 40 msg/s against baseline 2.1",
		Score:  0.93,
		When:   time.Now(),
	})

	// The anomaly record carries the chain's trace ID. journal.Default
	// is process-shared, so take the newest matching record.
	anoms := journal.Default.Snapshot(journal.Filter{Device: "wemo", Type: journal.TypeAnomaly})
	if len(anoms) == 0 {
		t.Fatal("no anomaly journaled")
	}
	traceID := anoms[len(anoms)-1].TraceID
	if traceID == 0 {
		t.Fatal("anomaly journaled without a trace ID")
	}

	timeline := journal.Reconstruct(journal.Default.Snapshot(journal.Filter{TraceID: traceID, Limit: 0}), traceID)
	var anomalySeq, postureSeq, flowSeq, reconfigSeq uint64
	flowMods := 0
	for _, e := range timeline.Events {
		switch e.Type {
		case journal.TypeAnomaly:
			anomalySeq = e.Seq
		case journal.TypePosture:
			postureSeq = e.Seq
		case journal.TypeFlowMod:
			flowMods++
			if flowSeq == 0 {
				flowSeq = e.Seq
			}
		case journal.TypeMboxReconfig:
			reconfigSeq = e.Seq
		}
	}
	if anomalySeq == 0 || postureSeq == 0 || flowSeq == 0 || reconfigSeq == 0 {
		t.Fatalf("incomplete chain (anomaly=%d posture=%d flow=%d reconfig=%d):\n%s",
			anomalySeq, postureSeq, flowSeq, reconfigSeq, timeline.Render())
	}
	if !(anomalySeq < postureSeq && postureSeq < flowSeq && flowSeq < reconfigSeq) {
		t.Fatalf("causal order violated (anomaly=%d posture=%d flow=%d reconfig=%d):\n%s",
			anomalySeq, postureSeq, flowSeq, reconfigSeq, timeline.Render())
	}
	if flowMods < 2 {
		t.Errorf("quarantine emitted %d FLOW_MODs, want >= 2 (src+dst drop)", flowMods)
	}
	if !timeline.Complete() {
		t.Errorf("timeline not complete:\n%s", timeline.Render())
	}

	// The switch agent journals the application asynchronously with the
	// trace ID it decoded off the wire.
	deadline := time.Now().Add(3 * time.Second)
	for {
		applied := journal.Default.Snapshot(journal.Filter{TraceID: traceID, Type: journal.TypeFlowApplied})
		if len(applied) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("FLOW_MOD application never journaled with trace %d:\n%s",
				traceID, timeline.Render())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTraceQueryableOverDebugJournal drives the same chain and then
// retrieves it exactly the way mboxctl trace does: GET /debug/journal
// with a trace filter.
func TestTraceQueryableOverDebugJournal(t *testing.T) {
	p, _ := tracePlatform(t)
	p.ReportAnomaly(ids.Anomaly{Device: "wemo", Kind: ids.AnomalyNewPeer, Detail: "synthetic: peer 203.0.113.9", Score: 0.8})

	anoms := journal.Default.Snapshot(journal.Filter{Device: "wemo", Type: journal.TypeAnomaly})
	traceID := anoms[len(anoms)-1].TraceID

	srv := httptest.NewServer(journal.Default.Handler())
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("%s?trace=%d&limit=0", srv.URL, traceID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap journal.SnapshotJSON
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Events) < 4 {
		t.Fatalf("trace query returned %d events, want >= 4", len(snap.Events))
	}
	timeline := journal.Reconstruct(snap.Events, traceID)
	if !timeline.Complete() {
		t.Errorf("HTTP-reconstructed timeline incomplete:\n%s", timeline.Render())
	}
	for _, e := range snap.Events {
		if e.TraceID != traceID {
			t.Errorf("event %d leaked from trace %d into query for %d", e.Seq, e.TraceID, traceID)
		}
	}
}

// TestReleaseFollowsIsolation verifies the far edge of the loop: when
// the device calms back down, the release chain carries its own trace
// through FLOW_MOD deletion.
func TestReleaseFollowsIsolation(t *testing.T) {
	p, s := tracePlatform(t)
	p.ReportAnomaly(ids.Anomaly{Device: "wemo", Kind: ids.AnomalyRate, Detail: "synthetic burst", Score: 0.9})

	// Calm the device: context back to normal triggers Release.
	p.Global.View.SetDeviceContext(context.Background(), "wemo", policy.ContextNormal, "operator cleared")
	_ = s
	events := journal.Default.Snapshot(journal.Filter{Device: "wemo", Type: journal.TypeFlowMod})
	var sawRelease bool
	for _, e := range events {
		if strings.Contains(e.Detail, "delete-by-cookie") {
			sawRelease = true
		}
	}
	if !sawRelease {
		t.Errorf("no quarantine release FLOW_MOD journaled; flow-mod events: %+v", events)
	}
}

// TestUseSteeringAfterIsolationEnforcesQuarantine is the regression
// test for a standing-quarantine hole: when a posture isolated a
// device before any steering app was attached, the isolation mirror
// used to advance anyway, so attaching steering later never emitted
// the quarantine FLOW_MODs. Now the mirror only tracks rules actually
// sent, and UseSteering re-applies standing isolation postures.
func TestUseSteeringAfterIsolationEnforcesQuarantine(t *testing.T) {
	d := policy.NewDomain()
	d.AddDevice("wemo", policy.ContextNormal, policy.ContextSuspicious)
	f := policy.NewFSM(d)
	f.AddRule(policy.Rule{
		Name:       "quarantine-wemo-suspicious",
		Conditions: []policy.Condition{policy.DeviceIs("wemo", policy.ContextSuspicious)},
		Device:     "wemo",
		Posture:    policy.Posture{Isolate: true},
		Priority:   100,
	})
	p, err := New(Options{Policy: f})
	if err != nil {
		t.Fatal(err)
	}
	plug := device.NewCamera("wemo", packet.MustParseIPv4("10.0.0.32")).Device
	if _, err := p.AddDevice(plug); err != nil {
		t.Fatal(err)
	}
	p.Start()
	t.Cleanup(p.Stop)

	// Device turns suspicious while NO steering app is attached: the
	// posture isolates, but no quarantine rules can exist yet.
	p.ReportAnomaly(ids.Anomaly{Device: "wemo", Kind: ids.AnomalyRate, Detail: "synthetic burst", Score: 0.95})
	m, _ := p.Device("wemo")
	if !m.CurrentPosture.Isolate {
		t.Fatal("posture did not isolate")
	}

	// Steering arrives after the fact, with a live switch behind it.
	s := controller.NewSteering(nil)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	agent, err := netsim.ConnectAgent(p.Switch, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Stop)
	deadline := time.Now().Add(3 * time.Second)
	for !strings.Contains(s.String(), "1 switches") {
		if time.Now().After(deadline) {
			t.Fatalf("switch never registered: %s", s)
		}
		time.Sleep(5 * time.Millisecond)
	}

	p.UseSteering(s)
	if !s.Isolated("wemo") {
		t.Fatal("UseSteering did not re-apply the standing quarantine")
	}
	// The drop rules land on the switch (agent application is async).
	deadline = time.Now().Add(3 * time.Second)
	for {
		n := 0
		for _, e := range p.Switch.Table().Entries() {
			if e.Priority == 400 {
				n++
			}
		}
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("quarantine rules never reached the switch (have %d)", n)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Calming the device down releases the late-applied quarantine.
	p.Global.View.SetDeviceContext(context.Background(), "wemo", policy.ContextNormal, "operator cleared")
	if s.Isolated("wemo") {
		t.Error("release after late attach did not clear the quarantine")
	}
}
