// Package core is IoTSec itself: the facade that assembles the
// substrates into the Figure 2 architecture. Every device attaches to
// the network through its own dynamically launched µmbox (the tunnel
// of Figure 2); device events, IDS alerts, anomaly detections and
// environment readings feed the controller's global view; the policy
// FSM maps the resulting system state to per-device postures; and the
// orchestrator translates posture deltas into live µmbox pipeline
// reconfigurations.
//
// Forwarding on the uplink switch is by table only. The entries come
// in three cookie classes (top byte of the cookie, then the MAC), so
// each owner can bulk-delete its own and nothing else:
//
//	0x54 'T'  prio 100      tunnel pins: eth_dst=<MAC> → output:<port>, one
//	                        per attachment, plus broadcast → flood; written
//	                        by netsim.Switch.Attach, never removed
//	0x50 'P'  prio 250–310  behavior-profile deny floor and allows
//	                        (profile.Compile, sent by controller.Steering)
//	0x51 'Q'  prio 400      quarantine drops (controller.Steering.Isolate)
//
// A frame for a MAC nobody attached matches nothing and is dropped and
// counted (the switch's table misses): an unknown destination reaches
// no one.
package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/device"
	"iotsec/internal/envsim"
	"iotsec/internal/forensics"
	"iotsec/internal/ids"
	"iotsec/internal/journal"
	"iotsec/internal/mbox"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
	"iotsec/internal/telemetry"
)

// Options configure a Platform.
type Options struct {
	// Policy is the FSM; nil installs an empty (allow-all) policy
	// over an empty domain.
	Policy *policy.FSM
	// BootTimeScale compresses modeled boot latency in tests
	// (default 0.01).
	BootTimeScale float64
	// ChallengeSolution is the robot-check answer a human supplies.
	ChallengeSolution string
}

// Platform is a running IoTSec deployment.
type Platform struct {
	Network *netsim.Network
	Env     *envsim.Environment
	Switch  *netsim.Switch
	Manager *mbox.Manager
	Global  *controller.Global

	opts Options
	disc *envsim.Discretizer
	fsm  *policy.FSM

	mu      sync.Mutex
	devices map[string]*Managed
	// signatures holds, per SKU, the signature rules (from the
	// crowdsourced repository or local additions) and the one engine
	// compiled from them that every device of the SKU shares.
	signatures map[string]*skuSignatures
	// profiles holds per-device anomaly profiles.
	profiles map[string]*ids.Profile

	// enforcement bookkeeping
	reconfigures uint64
	lastVersion  uint64

	started bool

	// steering, when attached via UseSteering, receives quarantine
	// FLOW_MODs whenever a posture isolates or releases a device.
	steering *controller.Steering

	// hierarchy + supervision (SuperviseControllers): when attached,
	// device events route through the partition tier instead of
	// straight into the global view.
	hierarchy    *controller.Hierarchy
	partitioning *controller.Partitioning
	supervisor   *controller.Supervisor

	// profilePlane, when enabled, drives behavior-profile learning,
	// enforcement and rogue detection; hostMACs remembers hosts
	// attached before the plane existed (lockdown whitelist).
	profilePlane *ProfilePlane
	hostMACs     []packet.MACAddress
	// crowd is the sigrepo link, once connected (profile publishing).
	crowd *CrowdLink

	// forensicsCap, when enabled, pins incident chains out of the
	// journal ring into the durable store (EnableForensics).
	forensicsCap *forensics.Capturer
}

// Managed is one device under IoTSec protection.
type Managed struct {
	Device   *device.Device
	Instance *mbox.Instance
	// CurrentPosture is the last applied posture.
	CurrentPosture policy.Posture

	// isolated mirrors whether quarantine flow rules are installed.
	isolated bool

	// applyMu serialises posture applications to this device, so the
	// order the version check admits them in is the order their
	// enforcement lands in. Taken before p.mu, never with it held.
	applyMu sync.Mutex
	// applied is the highest global-view version applied to the device.
	applied uint64
}

// New assembles a platform.
func New(opts Options) (*Platform, error) {
	if opts.Policy == nil {
		opts.Policy = policy.NewFSM(policy.NewDomain())
	}
	if opts.BootTimeScale == 0 {
		opts.BootTimeScale = 0.01
	}
	if opts.ChallengeSolution == "" {
		opts.ChallengeSolution = "7hills"
	}

	p := &Platform{
		Network:    netsim.NewNetwork(),
		Env:        envsim.StandardHome(),
		Switch:     netsim.NewSwitch("iotsec-uplink", 1),
		Manager:    mbox.NewManager(mbox.Server{Name: "onprem0", Slots: 256}, mbox.Server{Name: "onprem1", Slots: 256}),
		opts:       opts,
		disc:       envsim.StandardDiscretizer(),
		fsm:        opts.Policy,
		devices:    make(map[string]*Managed),
		signatures: make(map[string]*skuSignatures),
		profiles:   make(map[string]*ids.Profile),
	}
	p.Manager.TimeScale = opts.BootTimeScale
	if err := p.Network.AddNode(p.Switch); err != nil {
		return nil, err
	}
	p.Global = controller.NewGlobal(opts.Policy, p.applyPosture)

	// Environment → view: discretized levels feed the global state.
	// Each tick is a fresh causal chain (a root span), so any posture
	// change it provokes is traceable back to the reading.
	p.Env.AddObserver(func(s envsim.Snapshot, _ map[string]float64) {
		ctx, span := telemetry.StartSpan(context.Background(), "core.env_tick")
		for _, v := range p.disc.Variables() {
			p.Global.View.SetEnv(ctx, v, p.disc.Value(v, s.Get(v)), "environment")
		}
		span.End()
	})
	return p, nil
}

// AttachHost connects an unmanaged host (app, hub, attacker) directly
// to the uplink switch.
func (p *Platform) AttachHost(st *netsim.Stack) {
	p.Switch.Attach(p.Network, st.Attach(p.Network), st.MAC())
	p.mu.Lock()
	p.hostMACs = append(p.hostMACs, st.MAC())
	plane := p.profilePlane
	p.mu.Unlock()
	if plane != nil {
		plane.hostAttached(st.MAC())
	}
}

// AddDevice brings a device under management: it attaches through a
// freshly launched µmbox, binds to the environment and wires event
// emission into the view. The device must already be declared in the
// policy domain; an undeclared one is refused before anything is
// attached, since no posture would ever be computed for it. The µmbox
// launches with the quarantine chain (deny everything) and runs it
// until the device's first posture is applied: at Start, or at once
// for a device hot-plugged after Start — it never runs allow-all.
func (p *Platform) AddDevice(d *device.Device) (*Managed, error) {
	if _, ok := p.fsm.Domain.DeviceOrdinal(d.Name); !ok {
		return nil, fmt.Errorf("core: device %s is not declared in the policy domain", d.Name)
	}
	devPort, err := d.Attach(p.Network)
	if err != nil {
		return nil, err
	}
	d.BindEnvironment(p.Env)
	d.SetEventSink(func(e device.Event) { p.ReportDeviceEvent(e) })

	inst, err := p.Manager.Launch(context.Background(), "mb-"+d.Name, mbox.PlatformMicroVM, mbox.NewPipeline(mbox.NewHeaderFilter(mbox.Deny)))
	if err != nil {
		return nil, fmt.Errorf("core: launching µmbox for %s: %w", d.Name, err)
	}
	inst.Mbox.SetProtectedIP(d.IP())
	south, north := inst.Mbox.AttachInline(p.Network)
	p.Network.Connect(devPort, south, netsim.LinkOptions{})
	p.Switch.Attach(p.Network, north, d.MAC())

	m := &Managed{Device: d, Instance: inst}
	p.mu.Lock()
	p.devices[d.Name] = m
	p.profiles[d.Name] = ids.NewProfile(d.Name)
	started := p.started
	plane := p.profilePlane
	p.mu.Unlock()
	mDevicesAdded.Inc()
	if plane != nil {
		plane.deviceAdded(m)
	}

	// Hot-plugged devices get their posture immediately; devices
	// added before Start are postured there.
	if started {
		// Version before state: the posture is then at least as new as
		// the version it is stamped with, never older.
		version := p.Global.View.Version()
		state := p.Global.View.State()
		if posture, ok := p.fsm.Lookup(state)[d.Name]; ok {
			p.applyPosture(context.Background(), d.Name, posture, version)
		}
	}
	return m, nil
}

// Device looks up a managed device.
func (p *Platform) Device(name string) (*Managed, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m, ok := p.devices[name]
	return m, ok
}

// Start begins packet delivery and applies the initial postures.
func (p *Platform) Start() {
	p.Network.Start()
	p.mu.Lock()
	started := p.started
	p.started = true
	p.mu.Unlock()
	if started {
		return
	}
	// Apply the policy's posture for the initial (all-normal) state.
	state := p.Global.View.State()
	for dev, posture := range p.fsm.Lookup(state) {
		p.applyPosture(context.Background(), dev, posture, 0)
	}
}

// Stop halts the deployment.
func (p *Platform) Stop() {
	p.mu.Lock()
	devices := make([]*Managed, 0, len(p.devices))
	for _, m := range p.devices {
		devices = append(devices, m)
	}
	p.mu.Unlock()
	for _, m := range devices {
		m.Device.Stop()
	}
	p.Network.Stop()
}

// postureOrigin says where a posture application comes from, which
// decides how its version is read.
type postureOrigin int

const (
	// fromGlobal: versioned by p.Global.View. Global.reconcile calls
	// its sink outside its lock, so two reconciles can deliver one
	// device's postures out of version order; the older one is dropped.
	fromGlobal postureOrigin = iota
	// fromPartition: versioned by a partition-local view, whose numbers
	// restart on re-home and do not compare with the global view's;
	// applied as delivered.
	fromPartition
	// reapply: the device's current posture once more, at the version it
	// already has (a new signature generation to pick up).
	reapply
)

// applyPosture is the global controller's PostureSink.
func (p *Platform) applyPosture(ctx context.Context, deviceName string, posture policy.Posture, version uint64) {
	p.enforce(ctx, deviceName, fromGlobal, posture, version)
}

// applyPartitionPosture is the partition tier's PostureSink.
func (p *Platform) applyPartitionPosture(ctx context.Context, deviceName string, posture policy.Posture, version uint64) {
	p.enforce(ctx, deviceName, fromPartition, posture, version)
}

// enforce translates a posture into an element chain and
// live-reconfigures the device's µmbox. It closes Figure 2's loop, so
// it also emits the event→enforcement latency (measured from the view
// commit that triggered it) and a span — a child of whatever event
// chain provoked the posture, so the journal timeline for the trace
// reads anomaly → posture → FLOW_MOD → mbox-reconfig in sequence order.
//
// A stale posture must never lift a newer quarantine: a global-view
// application older than what the device already runs is dropped and
// counted. Version 0 (Start, before any commit) always applies.
func (p *Platform) enforce(ctx context.Context, deviceName string, origin postureOrigin, posture policy.Posture, version uint64) {
	p.mu.Lock()
	m, ok := p.devices[deviceName]
	p.mu.Unlock()
	if !ok {
		return // policy mentions a device not (yet) deployed
	}
	m.applyMu.Lock()
	defer m.applyMu.Unlock()

	p.mu.Lock()
	switch origin {
	case reapply:
		posture, version = m.CurrentPosture, m.applied
	case fromGlobal:
		if version > 0 && version < m.applied {
			p.mu.Unlock()
			mPostureStale.Inc()
			return
		}
		if version > m.applied {
			m.applied = version
		}
	}
	m.CurrentPosture = posture
	wasIsolated := m.isolated
	steering := p.steering
	// m.isolated mirrors the quarantine rules actually on the wire, so
	// it only advances when a steering app is attached to receive them.
	// Otherwise a posture that isolates before UseSteering would mark
	// the device isolated without any rules existing, and the real
	// enforcement would never be emitted.
	if steering != nil {
		m.isolated = posture.Isolate
	}
	p.reconfigures++
	p.lastVersion = version
	p.mu.Unlock()

	ctx, span := telemetry.StartSpan(ctx, "core.apply_posture")
	sev := journal.Info
	if posture.Isolate {
		sev = journal.Warn
	}
	journal.Record(ctx, journal.TypePosture, sev, deviceName,
		fmt.Sprintf("v%d %s", version, posture))
	// Network-level enforcement first (quarantine rules reach the
	// switches), then the µmbox pipeline swap.
	if steering != nil && posture.Isolate != wasIsolated {
		if posture.Isolate {
			steering.Isolate(ctx, deviceName, m.Device.MAC())
		} else {
			steering.Release(ctx, deviceName, m.Device.MAC())
		}
	}
	elements := p.buildPipeline(m, posture)
	_ = p.Manager.Reconfigure(ctx, "mb-"+deviceName, elements...)
	span.End()
	mPostureApplies.Inc()
	// Only the global view's versions index Global's commit times; a
	// partition-local version would fetch some unrelated commit's.
	if version > 0 && origin == fromGlobal {
		if committed, ok := p.Global.CommitTime(version); ok {
			mEnforceSeconds.Observe(time.Since(committed).Seconds())
		}
	}
}

// UseSteering attaches an SDN steering application: posture changes
// that isolate (or release) a device are additionally enforced as
// quarantine FLOW_MODs on every switch the steering app controls,
// carrying the causal trace ID across the southbound wire. Devices
// whose current posture already isolates are quarantined immediately,
// so attaching steering after an isolation decision still enforces it.
func (p *Platform) UseSteering(s *controller.Steering) {
	type pending struct {
		name string
		mac  packet.MACAddress
	}
	var toIsolate []pending
	p.mu.Lock()
	p.steering = s
	plane := p.profilePlane
	if s != nil {
		for name, m := range p.devices {
			if m.CurrentPosture.Isolate && !m.isolated {
				m.isolated = true
				toIsolate = append(toIsolate, pending{name, m.Device.MAC()})
			}
		}
	}
	p.mu.Unlock()
	for _, q := range toIsolate {
		ctx, span := telemetry.StartSpan(context.Background(), "core.use_steering")
		journal.Record(ctx, journal.TypePosture, journal.Warn, q.name,
			"steering attached: re-applying standing quarantine")
		s.Isolate(ctx, q.name, q.mac)
		span.End()
	}
	// Parked profile enforcement gets its rules onto the wire now.
	if plane != nil && s != nil {
		plane.steeringAttached()
	}
}

// ReportDeviceEvent feeds one device event into the view as a fresh
// causal chain (root span + journal record). Device event sinks call
// this; tests can inject synthetic events through it.
func (p *Platform) ReportDeviceEvent(e device.Event) {
	ctx, span := telemetry.StartSpan(context.Background(), "core.device_event")
	journal.Record(ctx, journal.TypeDeviceEvent, journal.Debug, e.Device,
		fmt.Sprintf("%s: %s", e.Kind, e.Detail))
	p.mu.Lock()
	h, part := p.hierarchy, p.partitioning
	p.mu.Unlock()
	// With a supervised partition tier attached, events from partitioned
	// devices route through it (local absorb or escalate); everything
	// else keeps the Global-only path.
	if h != nil && part.GroupOf(e.Device) >= 0 {
		h.HandleDeviceEvent(ctx, e)
	} else {
		p.Global.View.HandleDeviceEvent(ctx, e)
	}
	span.End()
}

// ReportAnomaly feeds one behavioral anomaly into the view as a fresh
// causal chain. µmbox anomaly elements call this; tests inject
// synthetic anomalies through it and then follow the resulting trace
// ID through the journal.
func (p *Platform) ReportAnomaly(a ids.Anomaly) {
	ctx, span := telemetry.StartSpan(context.Background(), "core.anomaly")
	journal.Record(ctx, journal.TypeAnomaly, journal.Warn, a.Device,
		fmt.Sprintf("%s: %s (score %.2f)", a.Kind, a.Detail, a.Score))
	p.Global.View.HandleAnomaly(ctx, a)
	span.End()
}

// ReportAlert feeds one IDS alert into the view as a fresh causal
// chain.
func (p *Platform) ReportAlert(deviceName string, a ids.Alert) {
	ctx, span := telemetry.StartSpan(context.Background(), "core.alert")
	journal.Record(ctx, journal.TypeAlert, journal.Warn, deviceName,
		fmt.Sprintf("sid %d: %s", a.SID, a.Msg))
	p.Global.View.HandleAlert(ctx, deviceName, a)
	span.End()
}

// buildPipeline translates a posture into concrete µmbox elements.
func (p *Platform) buildPipeline(m *Managed, posture policy.Posture) []mbox.Element {
	dev := m.Device
	var out []mbox.Element

	if posture.Isolate {
		return []mbox.Element{mbox.NewHeaderFilter(mbox.Deny)}
	}
	if len(posture.BlockCommands) > 0 {
		blocker := mbox.NewContextGate(func(string) bool { return false }, posture.BlockCommands...)
		out = append(out, blocker)
	}
	if posture.RateLimit > 0 {
		out = append(out, mbox.NewRateLimiter(posture.RateLimit, int(posture.RateLimit)))
	}
	for _, spec := range posture.Modules {
		if e := p.buildElement(dev, spec); e != nil {
			out = append(out, e)
		}
	}
	// Always keep observability.
	out = append(out, &mbox.Logger{})
	return out
}

// buildElement instantiates one ModuleSpec.
func (p *Platform) buildElement(dev *device.Device, spec policy.ModuleSpec) mbox.Element {
	switch spec.Kind {
	case "logger":
		return &mbox.Logger{}
	case "password-proxy":
		factoryUser, factoryPass := splitCreds(dev.Profile.VulnDetail(device.VulnDefaultCredentials))
		user := spec.Config["user"]
		pass := spec.Config["pass"]
		return mbox.NewPasswordProxy(user, pass, factoryUser, factoryPass)
	case "ids":
		name := dev.Name
		return &mbox.IDSElement{
			Engine:  p.engineFor(dev.Profile.SKU),
			OnAlert: func(a ids.Alert) { p.ReportAlert(name, a) },
		}
	case "anomaly":
		p.mu.Lock()
		profile := p.profiles[dev.Name]
		p.mu.Unlock()
		return &mbox.AnomalyElement{
			Profile:   profile,
			OnAnomaly: func(a ids.Anomaly) { p.ReportAnomaly(a) },
		}
	case "rate-limiter":
		rate, _ := strconv.ParseFloat(spec.Config["rate"], 64)
		if rate <= 0 {
			rate = 50
		}
		return mbox.NewRateLimiter(rate, int(rate))
	case "dns-guard":
		maxResp, _ := strconv.Atoi(spec.Config["max_response"])
		if maxResp == 0 {
			maxResp = 512
		}
		return &mbox.DNSGuard{MaxResponseBytes: maxResp}
	case "stateful-fw":
		return mbox.NewStatefulFirewall(device.MgmtPort)
	case "robot-check":
		return mbox.NewChallenge(p.opts.ChallengeSolution)
	case "context-gate":
		guarded := spec.Config["guard"]
		requireVar := spec.Config["require_env"]
		requireVal := spec.Config["require_value"]
		view := p.Global.View
		gate := mbox.NewContextGate(func(string) bool {
			return view.Env(requireVar) == requireVal
		}, guarded)
		return gate
	default:
		return &mbox.Logger{}
	}
}

// splitCreds parses "user:pass".
func splitCreds(s string) (user, pass string) {
	for i := 0; i < len(s); i++ {
		if s[i] == ':' {
			return s[:i], s[i+1:]
		}
	}
	return s, ""
}

// Metrics reports enforcement activity.
func (p *Platform) Metrics() (reconfigures uint64, lastVersion uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reconfigures, p.lastVersion
}

// RunEnvironment advances the physical world n ticks (convenience for
// scenarios and experiments).
func (p *Platform) RunEnvironment(n int) { p.Env.Run(n) }

// WaitForContext polls until the view reports the device in the given
// context or the timeout expires.
func (p *Platform) WaitForContext(deviceName string, ctx policy.SecurityContext, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if p.Global.View.DeviceContext(deviceName) == ctx {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}
