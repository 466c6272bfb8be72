package core

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/device"
	"iotsec/internal/journal"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
	"iotsec/internal/profile"
	"iotsec/internal/slo"
)

// profilePlatform builds a one-camera deployment with the profile
// plane enabled (enforce + lockdown), a quarantine-on-suspicious
// policy, and a live steering application on the uplink switch.
func profilePlatform(t *testing.T, name, ip string) (*Platform, *ProfilePlane, *controller.Steering) {
	t.Helper()
	d := policy.NewDomain()
	d.AddDevice(name, policy.ContextNormal, policy.ContextSuspicious)
	f := policy.NewFSM(d)
	f.AddRule(policy.Rule{
		Name:       "quarantine-" + name + "-suspicious",
		Conditions: []policy.Condition{policy.DeviceIs(name, policy.ContextSuspicious)},
		Device:     name,
		Posture:    policy.Posture{Isolate: true},
		Priority:   100,
	})
	p, err := New(Options{Policy: f})
	if err != nil {
		t.Fatal(err)
	}
	plane := p.EnableProfiles(ProfileOptions{Enforce: true})
	cam := device.NewCamera(name, packet.MustParseIPv4(ip))
	if _, err := p.AddDevice(cam.Device); err != nil {
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
	deadline := time.Now().Add(3 * time.Second)
	for !strings.Contains(s.String(), "1 switches") {
		if time.Now().After(deadline) {
			t.Fatalf("switch never registered: %s", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return p, plane, s
}

// udpSink binds a counter handler on a client port; payload
// discrimination lets tests tell frames apart.
func udpSink(t *testing.T, st *netsim.Stack, port uint16, want string) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	if err := st.HandleUDP(port, func(_ packet.IPv4Address, _ uint16, payload []byte) {
		if string(payload) == want {
			n.Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return &n
}

// dumpJournalOnFailure exports the forensic journal as NDJSON to
// $IOTSEC_CHAOS_JOURNAL when the test fails, so the CI profiles stage
// can upload the learn→enforce→violate→quarantine timeline as an
// artifact (same contract as the chaos stage).
func dumpJournalOnFailure(t *testing.T) {
	path := os.Getenv("IOTSEC_CHAOS_JOURNAL")
	if path == "" {
		return
	}
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Logf("journal dump: %v", err)
			return
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		for _, e := range journal.Default.Snapshot(journal.Filter{}) {
			_ = enc.Encode(e)
		}
		t.Logf("forensic journal dumped to %s", path)
	})
}

// prioCount counts installed switch rules at one priority.
func prioCount(p *Platform, prio uint16) int {
	n := 0
	for _, e := range p.Switch.Table().Entries() {
		if e.Priority == prio {
			n++
		}
	}
	return n
}

// TestProfileLifecycleViolationQuarantinesWithinSLO is the PR's
// acceptance scenario: a device's behavior is learned into a SKU
// profile, the profile is enforced as deny-by-default switch rules,
// and when the device then steps outside its allowlist the violation
// drives the standard anomaly→posture→FLOW_MOD chain — one trace in
// the forensic journal, quarantine inside the detect→enforce SLO.
func TestProfileLifecycleViolationQuarantinesWithinSLO(t *testing.T) {
	dumpJournalOnFailure(t)
	p, plane, s := profilePlatform(t, "pcam", "10.0.1.10")
	cam, _ := p.Device("pcam")
	client := newClient(t, p, "10.0.1.200")
	clientIP := client.Stack.IP()
	got := udpSink(t, client.Stack, 9000, "checkin")

	// Training window: the camera's one habit is a UDP check-in to the
	// client on 9000.
	plane.StartLearning()
	if err := cam.Device.Stack().SendUDP(clientIP, 9000, 33000, []byte("checkin")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "training traffic", func() bool { return got.Load() >= 1 })

	profiles := plane.FinishLearning(context.Background())
	if len(profiles) != 1 || profiles[0].SKU != cam.Device.Profile.SKU {
		t.Fatalf("distilled %+v, want one profile for %s", profiles, cam.Device.Profile.SKU)
	}
	if !profiles[0].Allows("udp", 33000, 9000, clientIP) {
		t.Fatalf("learned profile does not allow the observed check-in: %+v", profiles[0].Services)
	}

	// Enforce mode pushed the compiled rule set: deny floor + allows
	// land on the switch through the agent.
	waitFor(t, "deny floor on switch", func() bool {
		return prioCount(p, profile.PriorityDeny) >= 2 && prioCount(p, profile.PriorityAllow) >= 2
	})
	if got := plane.Engine().EnforcedDevices(); len(got) != 1 || got[0] != "pcam" {
		t.Fatalf("enforced devices = %v", got)
	}

	// Authorized behavior still flows under the deny floor.
	if err := cam.Device.Stack().SendUDP(clientIP, 9000, 33000, []byte("checkin")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "authorized traffic under enforcement", func() bool { return got.Load() >= 2 })

	// MTTR accounting from here: the tracker sees the violation chain.
	tracker := slo.NewTracker(journal.Default, slo.Options{ChainTimeout: 5 * time.Second})
	defer tracker.Close()

	// The device steps outside its profile.
	start := time.Now()
	if err := cam.Device.Stack().SendUDP(clientIP, 4444, 7000, []byte("exfil")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "quarantine", func() bool { return s.Isolated("pcam") })
	mttr := time.Since(start)
	if mttr > 5*time.Second {
		t.Errorf("detect→enforce took %s, over the 5s SLO", mttr)
	}

	// One trace carries the whole story: profile-violation, the
	// anomaly it implies, the posture flip, and the quarantine
	// FLOW_MODs, in causal order.
	viols := journal.Default.Snapshot(journal.Filter{Device: "pcam", Type: journal.TypeProfileViolation})
	if len(viols) == 0 {
		t.Fatal("no profile-violation journaled")
	}
	traceID := viols[len(viols)-1].TraceID
	if traceID == 0 {
		t.Fatal("violation journaled without a trace")
	}
	timeline := journal.Reconstruct(journal.Default.Snapshot(journal.Filter{TraceID: traceID, Limit: 0}), traceID)
	var violSeq, anomSeq, postureSeq, flowSeq uint64
	for _, e := range timeline.Events {
		switch e.Type {
		case journal.TypeProfileViolation:
			violSeq = e.Seq
		case journal.TypeAnomaly:
			anomSeq = e.Seq
		case journal.TypePosture:
			postureSeq = e.Seq
		case journal.TypeFlowMod:
			if flowSeq == 0 {
				flowSeq = e.Seq
			}
		}
	}
	if violSeq == 0 || anomSeq == 0 || postureSeq == 0 || flowSeq == 0 {
		t.Fatalf("incomplete chain (viol=%d anom=%d posture=%d flow=%d):\n%s",
			violSeq, anomSeq, postureSeq, flowSeq, timeline.Render())
	}
	if !(violSeq < anomSeq && anomSeq < postureSeq && postureSeq < flowSeq) {
		t.Fatalf("causal order violated (viol=%d anom=%d posture=%d flow=%d):\n%s",
			violSeq, anomSeq, postureSeq, flowSeq, timeline.Render())
	}
	waitFor(t, "quarantine drops on switch", func() bool { return prioCount(p, 400) >= 2 })

	// The MTTR pipeline folded the chain into its histograms.
	waitFor(t, "MTTR chain completion", func() bool {
		tracker.Sync()
		return tracker.E2E().Count() >= 1
	})
	if q := tracker.E2E().Quantile(0.99); q > 5 {
		t.Errorf("chain e2e p99 = %.3fs, over the 5s SLO", q)
	}
}

// TestProfileAddressHopStaysBlocked: under an enforced profile,
// privilege follows the registered identity. The exact service tuple
// that flows with the device's own address is dropped at the switch
// when sourced from a hopped address — before, and independent of,
// the quarantine that follows.
func TestProfileAddressHopStaysBlocked(t *testing.T) {
	dumpJournalOnFailure(t)
	p, plane, s := profilePlatform(t, "hopcam", "10.0.2.10")
	cam, _ := p.Device("hopcam")
	client := newClient(t, p, "10.0.2.200")
	clientIP := client.Stack.IP()
	var legit, spoofed atomic.Int64
	if err := client.Stack.HandleUDP(9000, func(_ packet.IPv4Address, _ uint16, payload []byte) {
		switch string(payload) {
		case "checkin":
			legit.Add(1)
		case "spoofed":
			spoofed.Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}

	plane.StartLearning()
	if err := cam.Device.Stack().SendUDP(clientIP, 9000, 33000, []byte("checkin")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "training traffic", func() bool { return legit.Load() >= 1 })
	plane.FinishLearning(context.Background())
	waitFor(t, "profile rules on switch", func() bool {
		return prioCount(p, profile.PriorityDeny) >= 2 && prioCount(p, profile.PriorityAllow) >= 2
	})

	// Authorized tuple from the registered identity: delivered.
	if err := cam.Device.Stack().SendUDP(clientIP, 9000, 33000, []byte("checkin")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "authorized delivery", func() bool { return legit.Load() >= 2 })

	// Same MAC, same tuple, hopped source address: hand-built frame
	// injected below the stack's own addressing.
	clientMAC, ok := cam.Device.Stack().LookupARP(clientIP)
	if !ok {
		t.Fatal("camera has no ARP entry for the client it just reached")
	}
	udp := &packet.UDP{SrcPort: 33000, DstPort: 9000}
	hopIP := packet.MustParseIPv4("10.0.2.66")
	udp.SetNetworkForChecksum(hopIP, clientIP)
	b := packet.NewSerializeBuffer()
	if err := packet.SerializeLayers(b,
		&packet.Ethernet{SrcMAC: cam.Device.MAC(), DstMAC: clientMAC, EtherType: packet.EtherTypeIPv4},
		&packet.IPv4{SrcIP: hopIP, DstIP: clientIP, Protocol: packet.IPProtocolUDP},
		udp,
		packet.NewPayload([]byte("spoofed")),
	); err != nil {
		t.Fatal(err)
	}
	cam.Device.Stack().InjectFrame(b.Bytes())

	// The tap flags the hop and the posture plane quarantines the
	// device identity.
	waitFor(t, "address-hop violation", func() bool {
		for _, v := range plane.Engine().Violations() {
			if v.Device == "hopcam" && v.Kind == profile.ViolationAddressHop {
				return true
			}
		}
		return false
	})
	waitFor(t, "identity quarantine", func() bool { return s.Isolated("hopcam") })

	// The spoofed frame never reached the client: it died on the deny
	// floor, where only the registered address earns the allow rules.
	time.Sleep(50 * time.Millisecond)
	if n := spoofed.Load(); n != 0 {
		t.Fatalf("spoofed frame delivered %d times; identity pinning failed", n)
	}
	if legit.Load() != 2 {
		t.Errorf("legit deliveries = %d, want exactly 2", legit.Load())
	}
}

// TestProfileRogueJoinQuarantined: with lockdown on, a device that
// joins the fabric without being admitted is cut off at the switch —
// and the event is journaled as a rogue quarantine, not as an anomaly
// (no detect→enforce chain is opened for a device the posture plane
// does not manage).
func TestProfileRogueJoinQuarantined(t *testing.T) {
	dumpJournalOnFailure(t)
	p, plane, s := profilePlatform(t, "gcam", "10.0.3.10")
	client := newClient(t, p, "10.0.3.200")
	clientIP := client.Stack.IP()
	got := udpSink(t, client.Stack, 9000, "rogue-data")

	// An unadmitted stack wires itself straight to the uplink switch.
	rogueMAC := packet.MACAddress{0x02, 0xbb, 0, 0, 0, 0x66}
	rogue := netsim.NewStack("intruder", rogueMAC, packet.MustParseIPv4("10.0.3.66"))
	t.Cleanup(rogue.Stop)
	sp := p.Switch.AttachPort(p.Network, 250)
	p.Network.Connect(rogue.Attach(p.Network), sp, netsim.LinkOptions{})

	// Its first frames (ARP, then data) trip the lockdown.
	if err := rogue.SendUDP(clientIP, 9000, 40000, []byte("rogue-data")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rogue quarantine rules", func() bool {
		return s.Isolated("rogue-"+rogueMAC.String()) && prioCount(p, 400) >= 2
	})
	if got := plane.Engine().Rogues(); len(got) != 1 || got[0] != rogueMAC.String() {
		t.Fatalf("engine rogues = %v", got)
	}
	events := journal.Default.Snapshot(journal.Filter{Type: journal.TypeRogueQuarantine})
	found := false
	for _, e := range events {
		if strings.Contains(e.Detail, rogueMAC.String()) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no rogue-quarantine journal event for %s", rogueMAC)
	}
	// No anomaly chain for an unmanaged sender: quarantine is not an
	// MTTR event.
	if anoms := journal.Default.Snapshot(journal.Filter{Device: "intruder", Type: journal.TypeAnomaly}); len(anoms) != 0 {
		t.Errorf("rogue join opened an anomaly chain: %+v", anoms)
	}

	// With the drops installed, further rogue datagrams die at the
	// switch.
	before := got.Load()
	if err := rogue.SendUDP(clientIP, 9000, 40001, []byte("rogue-data")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if got.Load() != before {
		t.Error("rogue traffic still delivered after quarantine")
	}
}

// TestProfileFirmwareDriftRelearn: a second training window distills a
// higher-version profile that supersedes the first everywhere — the
// old habit is no longer authorized, and stale replays of the v1
// profile cannot regress the plane.
func TestProfileFirmwareDriftRelearn(t *testing.T) {
	dumpJournalOnFailure(t)
	d := policy.NewDomain()
	d.AddDevice("dcam", policy.ContextNormal, policy.ContextSuspicious)
	p, err := New(Options{Policy: policy.NewFSM(d)})
	if err != nil {
		t.Fatal(err)
	}
	plane := p.EnableProfiles(ProfileOptions{Enforce: false})
	cam := device.NewCamera("dcam", packet.MustParseIPv4("10.0.4.10"))
	if _, err := p.AddDevice(cam.Device); err != nil {
		t.Fatal(err)
	}
	p.Start()
	t.Cleanup(p.Stop)
	client := newClient(t, p, "10.0.4.200")
	clientIP := client.Stack.IP()
	v1got := udpSink(t, client.Stack, 9000, "v1")
	v2got := udpSink(t, client.Stack, 9100, "v2")
	sku := cam.Device.Profile.SKU

	plane.StartLearning()
	if err := cam.Device.Stack().SendUDP(clientIP, 9000, 33000, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "v1 traffic", func() bool { return v1got.Load() >= 1 })
	plane.FinishLearning(context.Background())
	prof1, ok := plane.Engine().Profile(sku)
	if !ok || prof1.Version != 1 || !prof1.Allows("udp", 33000, 9000, clientIP) {
		t.Fatalf("v1 profile = %+v", prof1)
	}

	// Firmware update: the device's behavior legitimately changes.
	plane.StartLearning()
	if err := cam.Device.Stack().SendUDP(clientIP, 9100, 33000, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "v2 traffic", func() bool { return v2got.Load() >= 1 })
	plane.FinishLearning(context.Background())

	prof2, ok := plane.Engine().Profile(sku)
	if !ok || prof2.Version != 2 {
		t.Fatalf("relearned profile = %+v, want version 2", prof2)
	}
	if !prof2.Allows("udp", 33000, 9100, clientIP) {
		t.Error("new behavior not in the v2 profile")
	}
	if prof2.Allows("udp", 33000, 9000, clientIP) {
		t.Error("old behavior still authorized after re-learning")
	}
	// A stale v1 (e.g. a crowd cursor replay) does not regress v2.
	plane.Install(context.Background(), prof1, "stale-replay")
	if cur, _ := plane.Engine().Profile(sku); cur.Version != 2 || cur.Allows("udp", 33000, 9000, clientIP) {
		t.Fatalf("stale replay regressed the profile: %+v", cur)
	}
}

// TestProfileViolationReachesFleetView: the fleet view's violation
// fields have a producer. One live violation, then a flush of the
// platform's self-report, and the fleet view counts it and names the
// device as the top violator.
func TestProfileViolationReachesFleetView(t *testing.T) {
	dumpJournalOnFailure(t)
	p, plane, s := profilePlatform(t, "vcam", "10.0.4.10")
	report := p.StartFleetSelfReport("gw", time.Hour, nil)
	cam, _ := p.Device("vcam")
	client := newClient(t, p, "10.0.4.200")
	clientIP := client.Stack.IP()
	got := udpSink(t, client.Stack, 9000, "checkin")

	plane.StartLearning()
	if err := cam.Device.Stack().SendUDP(clientIP, 9000, 33000, []byte("checkin")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "training traffic", func() bool { return got.Load() >= 1 })
	plane.FinishLearning(context.Background())
	waitFor(t, "deny floor on switch", func() bool { return prioCount(p, profile.PriorityDeny) >= 2 })

	if err := cam.Device.Stack().SendUDP(clientIP, 4444, 7000, []byte("exfil")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "quarantine", func() bool { return s.Isolated("vcam") })
	report.Stop()

	fl := p.Global.Fleet().View().Fleet
	if fl.Violations != 1 {
		t.Errorf("fleet violations_total = %d, want 1", fl.Violations)
	}
	if len(fl.TopViolators) == 0 || fl.TopViolators[0].Key != "vcam" || fl.TopViolators[0].Count != 1 {
		t.Errorf("fleet top_violators = %+v, want vcam first with 1", fl.TopViolators)
	}
}
