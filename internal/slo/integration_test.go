package slo_test

import (
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/core"
	"iotsec/internal/device"
	"iotsec/internal/ids"
	"iotsec/internal/journal"
	"iotsec/internal/netsim"
	"iotsec/internal/openflow"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
	"iotsec/internal/resilience"
	"iotsec/internal/slo"
	"iotsec/internal/telemetry"
)

// slPlatform builds a one-device platform whose policy isolates the
// wemo plug on suspicion, with a steering app listening. The switch
// side is attached by the caller (real agent or fake switch).
func sloPlatform(t *testing.T, ip string) (*core.Platform, *controller.Steering, string) {
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
	p, err := core.New(core.Options{Policy: f})
	if err != nil {
		t.Fatal(err)
	}
	plug := device.NewCamera("wemo", packet.MustParseIPv4(ip)).Device
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
	return p, s, addr
}

// waitSwitches blocks until the steering app has n registered switch
// sessions.
func waitSwitches(t *testing.T, s *controller.Steering, n int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for s.Switches() != n {
		if time.Now().After(deadline) {
			t.Fatalf("steering never reached %d switches: %s", n, s)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLiveAnomalyPopulatesEveryStage is the tentpole acceptance test:
// one injected anomaly, flowing through the real platform (FSM →
// steering → OpenFlow wire → switch agent → µmbox manager), must
// populate iotsec_mttr_stage_seconds for every canonical stage and an
// iotsec_mttr_e2e_seconds observation at least as large as the sum of
// the critical-path stage latencies — all measured online, with no
// journal replay.
func TestLiveAnomalyPopulatesEveryStage(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := slo.NewTracker(journal.Default, slo.Options{Registry: reg, ChainTimeout: 30 * time.Second})
	defer tr.Close()

	p, s, addr := sloPlatform(t, "10.0.0.41")
	agent, err := netsim.ConnectAgent(p.Switch, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Stop)
	waitSwitches(t, s, 1)
	p.UseSteering(s)

	p.ReportAnomaly(ids.Anomaly{
		Device: "wemo",
		Kind:   ids.AnomalyRate,
		Detail: "synthetic: 40 msg/s against baseline 2.1",
		Score:  0.93,
		When:   time.Now(),
	})

	// The chain closes when the switch agent acknowledges the FLOW_MOD
	// (async over the wire) and the tracker folds it in.
	waitFor(t, "live chain completion", func() bool {
		v, ok := sample(reg, "iotsec_mttr_complete_total", "", nil)
		return ok && v >= 1
	})

	var criticalPath float64
	for _, stage := range []journal.Type{journal.TypePosture, journal.TypeFlowMod, journal.TypeFlowApplied, journal.TypeMboxReconfig} {
		c, ok := sample(reg, "iotsec_mttr_stage_seconds", "_count", map[string]string{"stage": string(stage)})
		if !ok || c < 1 {
			t.Errorf("stage %q count = %v (ok=%v), want >= 1", stage, c, ok)
		}
		if stage != journal.TypeMboxReconfig {
			v, _ := sample(reg, "iotsec_mttr_stage_seconds", "_sum", map[string]string{"stage": string(stage)})
			criticalPath += v
		}
	}
	e2e, ok := sample(reg, "iotsec_mttr_e2e_seconds", "_sum", nil)
	if !ok {
		t.Fatal("no e2e observation")
	}
	if e2e+1e-9 < criticalPath {
		t.Fatalf("e2e %gs < critical-path stage sum %gs: a stage delta overlaps", e2e, criticalPath)
	}
	if state, reason := tr.Health(); state != telemetry.HealthHealthy {
		t.Fatalf("tracker health = %v (%s), want healthy", state, reason)
	}
}

// fakeSwitch dials the steering endpoint and completes the OpenFlow
// handshake like a real switch, answers ECHO and BARRIER (so nothing
// upstream stalls), but silently swallows FLOW_MODs: rules are
// "accepted" on the wire yet never applied, and no flow-applied
// journal event ever appears — the stalled-enforcement failure the SLO
// plane exists to catch.
func fakeSwitch(t *testing.T, addr string, dpid uint64) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = raw.Close() })
	conn := openflow.NewConn(raw)
	go func() {
		for {
			m, xid, err := conn.Receive()
			if err != nil {
				return
			}
			switch msg := m.(type) {
			case *openflow.Hello:
				_, _ = conn.Send(&openflow.Hello{})
			case *openflow.FeaturesRequest:
				_, _ = conn.Send(&openflow.FeaturesReply{DatapathID: dpid, Ports: []uint16{1, 2, 3, 4}})
			case *openflow.Echo:
				if !msg.Reply {
					_ = conn.SendWithXID(&openflow.Echo{Reply: true, Payload: msg.Payload}, xid)
				}
			case *openflow.BarrierRequest:
				_ = conn.SendWithXID(&openflow.BarrierReply{}, xid)
			default:
				// FLOW_MOD and friends: accepted, never applied.
			}
		}
	}()
}

// TestStalledFlowModFlipsReadiness is the second acceptance test: with
// a switch that accepts but never applies FLOW_MODs, the chain times
// out under missing_stage="flow-applied" and /readyz turns 503 naming
// the mttr-pipeline component and the missing stage.
func TestStalledFlowModFlipsReadiness(t *testing.T) {
	clk := resilience.NewFakeClock(time.Unix(2000, 0))
	reg := telemetry.NewRegistry()
	tr := slo.NewTracker(journal.Default, slo.Options{Registry: reg, ChainTimeout: time.Second, Clock: clk})
	defer tr.Close()
	tr.RegisterHealth(reg.Health())

	p, s, addr := sloPlatform(t, "10.0.0.42")
	fakeSwitch(t, addr, 77)
	waitSwitches(t, s, 1)
	p.UseSteering(s)

	p.ReportAnomaly(ids.Anomaly{Device: "wemo", Kind: ids.AnomalyRate, Detail: "synthetic burst", Score: 0.95})

	// The tracker must see the FLOW_MOD emission and the µmbox reconfig
	// before fake time moves, so the deadline reflects chain start.
	waitFor(t, "flow-mod stage observed", func() bool {
		v, ok := sample(reg, "iotsec_mttr_stage_seconds", "_count", map[string]string{"stage": string(journal.TypeFlowMod)})
		return ok && v >= 1
	})
	if got := tr.Inflight(); got != 1 {
		t.Fatalf("Inflight = %d, want 1 (chain waiting on flow-applied)", got)
	}

	clk.Advance(5 * time.Second)
	tr.Sync()
	waitFor(t, "incomplete sweep", func() bool { return tr.Incomplete() >= 1 })
	if v, ok := sample(reg, "iotsec_mttr_incomplete_total", "", map[string]string{"missing_stage": "flow-applied"}); !ok || v < 1 {
		t.Fatalf(`incomplete_total{missing_stage="flow-applied"} = %v (ok=%v), want >= 1`, v, ok)
	}

	// /readyz: 503, with the offending component and stage named.
	srv, taddr, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + taddr + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d, want 503", resp.StatusCode)
	}
	var body telemetry.HealthJSON
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Ready {
		t.Fatal("/readyz body claims ready alongside a 503")
	}
	found := false
	for _, c := range body.Components {
		if c.Component != slo.Component {
			continue
		}
		found = true
		if c.State != telemetry.HealthDown || !c.Critical {
			t.Fatalf("component %+v, want critical and down", c)
		}
		if !strings.Contains(c.Reason, "flow-applied") {
			t.Fatalf("reason %q must name the missing stage", c.Reason)
		}
	}
	if !found {
		t.Fatalf("mttr-pipeline missing from /readyz body: %+v", body.Components)
	}

	// /healthz stays 200: a stalled enforcement path is a readiness
	// problem, not a liveness one.
	live, err := http.Get("http://" + taddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	live.Body.Close()
	if live.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", live.StatusCode)
	}

	// Scrape carries the component gauge at 0 (down).
	if v, ok := sample(reg, "iotsec_component_health", "", map[string]string{"component": slo.Component}); !ok || v != 0 {
		t.Fatalf("iotsec_component_health{mttr-pipeline} = %v (ok=%v), want 0", v, ok)
	}
}
