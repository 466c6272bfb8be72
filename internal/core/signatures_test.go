package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/device"
	"iotsec/internal/ids"
	"iotsec/internal/mbox"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
	"iotsec/internal/telemetry"
)

// The process-wide counters the cache tests assert with (registration
// is idempotent: these are the production counters).
var (
	engineBuilds  = telemetry.NewCounter("iotsec_ids_engine_builds_total", "")
	stalePostures = telemetry.NewCounter("iotsec_core_posture_stale_total", "")
)

var (
	protectPosture = policy.Posture{Modules: []policy.ModuleSpec{{Kind: "ids"}, {Kind: "stateful-fw"}}}
	isolatePosture = policy.Posture{Isolate: true}
)

// fleet is k cameras of one SKU plus one smart plug of another, each
// behind ids + stateful-fw and isolated while suspicious, with a real
// southbound steering session on the uplink switch.
type fleet struct {
	p      *Platform
	s      *controller.Steering
	cams   []*Managed
	plug   *Managed
	client *device.Client
}

func newFleet(t *testing.T, k int) *fleet {
	t.Helper()
	d := policy.NewDomain()
	f := policy.NewFSM(d)
	names := []string{"plug"}
	for i := 0; i < k; i++ {
		names = append(names, fmt.Sprintf("cam%d", i))
	}
	for _, name := range names {
		d.AddDevice(name, policy.ContextNormal, policy.ContextSuspicious)
		f.AddRule(policy.Rule{Name: "protect-" + name, Device: name, Posture: protectPosture, Priority: 1})
		f.AddRule(policy.Rule{
			Name:       "isolate-" + name,
			Conditions: []policy.Condition{policy.DeviceIs(name, policy.ContextSuspicious)},
			Device:     name,
			Posture:    isolatePosture,
			Priority:   100,
		})
	}
	p, err := New(Options{Policy: f})
	if err != nil {
		t.Fatal(err)
	}
	fl := &fleet{p: p}
	for i := 0; i < k; i++ {
		cam := device.NewCamera(names[1+i], packet.IPv4Address{10, 0, 1, byte(10 + i)})
		m, err := p.AddDevice(cam.Device)
		if err != nil {
			t.Fatal(err)
		}
		fl.cams = append(fl.cams, m)
	}
	plug := device.NewSmartPlug("plug", packet.IPv4Address{10, 0, 1, 200}, device.Appliance{Name: "lamp"})
	if fl.plug, err = p.AddDevice(plug.Device); err != nil {
		t.Fatal(err)
	}
	fl.client = newClient(t, p, "10.0.0.240")
	p.Start()
	t.Cleanup(p.Stop)

	fl.s = controller.NewSteering(nil)
	addr, err := fl.s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.s.Close() })
	agent, err := netsim.ConnectAgent(p.Switch, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Stop)
	p.UseSteering(fl.s)
	if !fl.s.WaitForSwitch(3 * time.Second) {
		t.Fatal("switch never completed the southbound handshake")
	}
	return fl
}

func (fl *fleet) camSKU() string { return fl.cams[0].Device.Profile.SKU }

func (fl *fleet) setContext(name string, sc policy.SecurityContext) {
	fl.p.Global.View.SetDeviceContext(context.Background(), name, sc, "test")
}

// engineOf is the engine an IDS element built for the device now would
// hold.
func (fl *fleet) engineOf(t *testing.T, m *Managed) *ids.Engine {
	t.Helper()
	for _, e := range fl.p.buildPipeline(m, protectPosture) {
		if el, ok := e.(*mbox.IDSElement); ok {
			return el.Engine
		}
	}
	t.Fatalf("%s: no ids element in the protect pipeline", m.Device.Name)
	return nil
}

// probe sends one management request carrying marker at the device;
// whether the device answers is not the point, the IDS sees the bytes.
func (fl *fleet) probe(m *Managed, marker string) {
	_, _ = fl.client.Call(m.Device.IP(), device.Request{Cmd: "STATUS", Args: []string{marker}})
}

func markerRule(marker string, sid int) string {
	return fmt.Sprintf(`alert tcp any any -> any %d (msg:"marker %s"; content:"%s"; sid:%d;)`,
		device.MgmtPort, marker, marker, sid)
}

// TestEngineCompiledOncePerSKUGeneration pins the cache's contract with
// the build counter: posture flips compile nothing, a new rule compiles
// exactly once however many devices of the SKU are attached, the new
// generation reaches every device of that SKU and none of another, and
// an idempotent re-install compiles nothing.
func TestEngineCompiledOncePerSKUGeneration(t *testing.T) {
	const k = 4
	fl := newFleet(t, k)
	p := fl.p
	for i := 0; i < 20; i++ {
		if err := p.AddSignatureRule(fl.camSKU(), markerRule(fmt.Sprintf("seed%02d", i), 5000+i)); err != nil {
			t.Fatal(err)
		}
	}
	gen1 := fl.engineOf(t, fl.cams[0])
	plugEngine := fl.engineOf(t, fl.plug)
	if gen1 == plugEngine {
		t.Fatal("two SKUs share one engine")
	}

	// 100 isolate/release flips across the k devices: zero builds, and
	// every device still gets the same engine.
	base := engineBuilds.Value()
	for i := 0; i < 100; i++ {
		name := fl.cams[i%k].Device.Name
		fl.setContext(name, policy.ContextSuspicious)
		if !fl.s.Isolated(name) {
			t.Fatalf("flip %d: %s not isolated", i, name)
		}
		fl.setContext(name, policy.ContextNormal)
		if fl.s.Isolated(name) {
			t.Fatalf("flip %d: %s not released", i, name)
		}
	}
	for _, m := range fl.cams {
		if got := fl.engineOf(t, m); got != gen1 {
			t.Fatalf("%s got engine %p, want the SKU's shared %p", m.Device.Name, got, gen1)
		}
		if got := m.Instance.Mbox.Pipeline().Elements(); len(got) != 3 || got[0] != "ids" {
			t.Fatalf("%s pipeline after release = %v, want ids, stateful-fw, logger", m.Device.Name, got)
		}
	}
	if n := engineBuilds.Value() - base; n != 0 {
		t.Fatalf("100 posture flips compiled %d engines, want 0", n)
	}

	// One new rule with k devices attached: exactly one build.
	if err := p.AddSignatureRule(fl.camSKU(), markerRule("freshmark", 6000)); err != nil {
		t.Fatal(err)
	}
	if n := engineBuilds.Value() - base; n != 1 {
		t.Fatalf("one AddSignatureRule with %d devices attached compiled %d engines, want 1", k, n)
	}
	gen2 := fl.engineOf(t, fl.cams[0])
	if gen2 == gen1 || gen2.RuleCount() != gen1.RuleCount()+1 {
		t.Fatalf("new generation: engine %p with %d rules (old %p with %d)", gen2, gen2.RuleCount(), gen1, gen1.RuleCount())
	}
	if fl.engineOf(t, fl.plug) != plugEngine {
		t.Fatal("a rule for the camera SKU recompiled the plug SKU's engine")
	}

	// The new rule fires on every device of the SKU, and on none of the
	// other SKU.
	for _, m := range fl.cams {
		fl.probe(m, "freshmark")
		if !p.WaitForContext(m.Device.Name, policy.ContextSuspicious, 2*time.Second) {
			t.Fatalf("%s: the new rule did not fire", m.Device.Name)
		}
	}
	fl.probe(fl.plug, "freshmark")
	p.Network.Quiesce(time.Second)
	if sc := p.Global.View.DeviceContext("plug"); sc != policy.ContextNormal {
		t.Fatalf("plug context = %s: a camera-SKU rule fired on another SKU", sc)
	}

	// A duplicate (the idempotent path): nothing is invalidated.
	base = engineBuilds.Value()
	if err := p.AddSignatureRule(fl.camSKU(), markerRule("freshmark", 6000)); err != nil {
		t.Fatal(err)
	}
	if got := fl.engineOf(t, fl.cams[0]); got != gen2 || engineBuilds.Value() != base {
		t.Fatalf("duplicate rule: engine %p (want %p), %d builds (want 0)", got, gen2, engineBuilds.Value()-base)
	}
}

// TestStalePostureNeverLiftsNewerQuarantine delivers a device's
// postures through the sink out of version order, as two concurrent
// Global reconciles can: the stale "normal" must not undo the newer
// isolation anywhere — not in steering, not in the pipeline.
func TestStalePostureNeverLiftsNewerQuarantine(t *testing.T) {
	fl := newFleet(t, 1)
	p, cam := fl.p, fl.cams[0]
	name := cam.Device.Name
	ctx := context.Background()
	v := p.Global.View.Version() + 10
	assertIsolated := func(when string) {
		t.Helper()
		if !fl.s.Isolated(name) {
			t.Fatalf("%s: steering no longer lists %s", when, name)
		}
		if got := cam.Instance.Mbox.Pipeline().Elements(); len(got) != 1 {
			t.Fatalf("%s: pipeline = %v, want the one-element deny chain", when, got)
		}
		if m, _ := p.Device(name); !m.CurrentPosture.Isolate {
			t.Fatalf("%s: current posture = %s", when, m.CurrentPosture)
		}
	}

	stale := stalePostures.Value()
	p.applyPosture(ctx, name, isolatePosture, v+1)
	assertIsolated("after isolate@v+1")
	p.applyPosture(ctx, name, protectPosture, v)
	assertIsolated("after the stale normal@v")
	if n := stalePostures.Value() - stale; n != 1 {
		t.Fatalf("stale applications counted = %d, want 1", n)
	}

	// A crowd push re-applies the posture in force, not an older copy.
	if err := p.AddSignatureRule(fl.camSKU(), markerRule("pushed", 7000)); err != nil {
		t.Fatal(err)
	}
	assertIsolated("after AddSignatureRule")

	// The next version in order does release.
	p.applyPosture(ctx, name, protectPosture, v+2)
	if fl.s.Isolated(name) || len(cam.Instance.Mbox.Pipeline().Elements()) < 2 {
		t.Fatalf("normal@v+2 did not release: isolated=%v pipeline=%v",
			fl.s.Isolated(name), cam.Instance.Mbox.Pipeline().Elements())
	}
}

// TestSharedEngineConcurrentPosturesAndRules: 8 devices take traffic
// through one shared engine while postures flip and rules are added
// concurrently (run with -race). Whatever the interleaving — a posture
// landing mid-AddSignatureRule, two reconciles delivering out of order
// — the platform must converge on the view's final state: everything
// released, every device on the one engine holding every rule.
func TestSharedEngineConcurrentPosturesAndRules(t *testing.T) {
	const (
		k     = 8
		rules = 24
		flips = 40
	)
	fl := newFleet(t, k)
	p := fl.p
	if err := p.AddSignatureRule(fl.camSKU(), markerRule("tripwire", 8000)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Traffic: every device's µmbox goroutine scans through the shared
	// engine; one request in eight trips a rule, so alerts raise
	// quarantines from the data path too.
	for i, m := range fl.cams {
		wg.Add(1)
		go func(i int, m *Managed) {
			defer wg.Done()
			st := netsim.NewStack(fmt.Sprintf("client%d", i), device.MACFor(packet.IPv4Address{10, 0, 0, byte(100 + i)}), packet.IPv4Address{10, 0, 0, byte(100 + i)})
			p.AttachHost(st)
			defer st.Stop()
			c := &device.Client{Stack: st, Timeout: 50 * time.Millisecond}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				marker := "benign"
				if n%8 == 7 {
					marker = "tripwire"
				}
				_, _ = c.Call(m.Device.IP(), device.Request{Cmd: "STATUS", Args: []string{marker}})
			}
		}(i, m)
	}
	// Posture flips: two goroutines per device, so one device's
	// reconciles overlap.
	var flippers sync.WaitGroup
	for _, m := range fl.cams {
		for g := 0; g < 2; g++ {
			flippers.Add(1)
			go func(name string) {
				defer flippers.Done()
				for n := 0; n < flips; n++ {
					fl.setContext(name, policy.ContextSuspicious)
					fl.setContext(name, policy.ContextNormal)
				}
			}(m.Device.Name)
		}
	}
	// Crowd pushes, each ending a generation under the devices' feet.
	flippers.Add(1)
	go func() {
		defer flippers.Done()
		for n := 0; n < rules; n++ {
			if err := p.AddSignatureRule(fl.camSKU(), markerRule(fmt.Sprintf("push%02d", n), 8100+n)); err != nil {
				t.Error(err)
			}
		}
	}()
	flippers.Wait()
	close(stop)
	wg.Wait()
	p.Network.Quiesce(2 * time.Second)

	// Alerts may have left devices suspicious; the view's last word is
	// normal for all of them.
	for _, m := range fl.cams {
		fl.setContext(m.Device.Name, policy.ContextNormal)
	}
	shared := fl.engineOf(t, fl.cams[0])
	if shared.RuleCount() != rules+1 {
		t.Fatalf("shared engine holds %d rules, want %d", shared.RuleCount(), rules+1)
	}
	for _, m := range fl.cams {
		name := m.Device.Name
		if fl.s.Isolated(name) {
			t.Errorf("%s still quarantined though the view says normal", name)
		}
		if got := m.Instance.Mbox.Pipeline().Elements(); len(got) != 3 {
			t.Errorf("%s pipeline = %v, want ids, stateful-fw, logger", name, got)
		}
		if cur, _ := p.Device(name); cur.CurrentPosture.Isolate {
			t.Errorf("%s current posture still isolates", name)
		}
		if got := fl.engineOf(t, m); got != shared {
			t.Errorf("%s on engine %p, want the shared %p", name, got, shared)
		}
	}
	if n := dropRules(p.Switch); n != 0 {
		t.Errorf("%d quarantine drop rules left in the switch table", n)
	}
}
