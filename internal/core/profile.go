package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"iotsec/internal/controller"
	"iotsec/internal/ids"
	"iotsec/internal/journal"
	"iotsec/internal/packet"
	"iotsec/internal/profile"
	"iotsec/internal/telemetry"
)

// ProfileOptions configure the platform's behavior-profile plane.
type ProfileOptions struct {
	// Enforce pushes compiled deny-by-default rules automatically:
	// when a device registers whose SKU already has a profile, and
	// whenever a profile lands or changes. Enforcement implies rogue
	// lockdown: any unregistered MAC that sources traffic is
	// quarantined.
	Enforce bool
}

// ProfilePlane is the platform-side driver of the profile subsystem:
// it owns the engine, feeds learned profiles to the crowd repository,
// installs crowd-validated profiles, pushes compiled enforcement
// through steering, and escalates live violations into the standard
// anomaly→posture→FLOW_MOD pipeline so detect→enforce MTTR covers
// profile events too.
type ProfilePlane struct {
	p      *Platform
	engine *profile.Engine

	// violations and topViolators count live violations for the
	// fleet self-report (ShardReport.Violations, .TopViolators).
	violations   telemetry.Counter
	topViolators *telemetry.TopK

	mu         sync.Mutex
	enforceAll bool
	generation int
	pending    map[string]bool // enforce requests awaiting steering
}

// EnableProfiles activates the behavior-profile plane: an engine is
// tapped into the fabric, every managed device (current and future)
// is registered with its identity, and attached hosts are whitelisted
// for lockdown. Idempotent; returns the existing plane if already
// enabled.
func (p *Platform) EnableProfiles(opts ProfileOptions) *ProfilePlane {
	p.mu.Lock()
	if p.profilePlane != nil {
		pl := p.profilePlane
		p.mu.Unlock()
		return pl
	}
	pl := &ProfilePlane{
		p:            p,
		topViolators: telemetry.NewStandaloneTopK(controller.FleetTopKCapacity),
		enforceAll:   opts.Enforce,
		pending:      make(map[string]bool),
	}
	pl.engine = profile.NewEngine(profile.Options{
		OnViolation: pl.onViolation,
		OnRogue:     pl.onRogue,
		Lockdown:    opts.Enforce,
	})
	p.profilePlane = pl
	devices := make([]*Managed, 0, len(p.devices))
	for _, m := range p.devices {
		devices = append(devices, m)
	}
	hosts := append([]packet.MACAddress(nil), p.hostMACs...)
	p.mu.Unlock()

	for _, m := range devices {
		pl.engine.Register(identityOf(m))
	}
	for _, mac := range hosts {
		pl.engine.RegisterHostMAC(mac)
	}
	p.Network.AddTap(pl.engine.Tap())
	return pl
}

// Profiles returns the plane, if enabled.
func (p *Platform) Profiles() (*ProfilePlane, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.profilePlane, p.profilePlane != nil
}

// identityOf derives a device's enforcement identity.
func identityOf(m *Managed) profile.Identity {
	return profile.Identity{
		Name: m.Device.Name,
		SKU:  m.Device.Profile.SKU,
		MAC:  m.Device.MAC(),
		IP:   m.Device.IP(),
	}
}

// Engine exposes the underlying engine (debug handler, stats, health).
func (pl *ProfilePlane) Engine() *profile.Engine { return pl.engine }

// Generation reports the installed-profile generation (bumped by each
// FinishLearning). Controller checkpoints record it so recovery knows
// which profile set enforcement was running.
func (pl *ProfilePlane) Generation() uint64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return uint64(pl.generation)
}

// RegisterHealth adds the profile engine to a health registry
// (non-critical: a degraded profile plane signals active containment,
// not an inability to serve).
func (pl *ProfilePlane) RegisterHealth(h *telemetry.HealthRegistry) {
	h.Register("profile-engine", false, pl.engine.Health)
}

// deviceAdded is called by Platform.AddDevice under no locks.
func (pl *ProfilePlane) deviceAdded(m *Managed) {
	pl.engine.Register(identityOf(m))
	pl.mu.Lock()
	auto := pl.enforceAll
	pl.mu.Unlock()
	if !auto {
		return
	}
	if _, ok := pl.engine.Profile(m.Device.Profile.SKU); ok {
		_ = pl.EnforceDevice(context.Background(), m.Device.Name)
	}
}

// hostAttached whitelists a benign host MAC for lockdown.
func (pl *ProfilePlane) hostAttached(mac packet.MACAddress) {
	pl.engine.RegisterHostMAC(mac)
}

// StartLearning opens a training window; close it with
// FinishLearning.
func (pl *ProfilePlane) StartLearning() {
	pl.engine.StartLearning()
	journal.RecordTrace(0, journal.TypeProfileLearned, journal.Debug, "profiles",
		"training window opened")
}

// FinishLearning closes the window, distills one profile per managed
// SKU, publishes each to the crowd repository (when a sigrepo link is
// attached — queued durably if the link is down), and, in enforce
// mode, pushes enforcement for every device of a profiled SKU. Each
// FinishLearning bumps the profile generation, so re-learning after a
// legitimate behavior change (firmware update) supersedes the old
// profile everywhere.
func (pl *ProfilePlane) FinishLearning(ctx context.Context) []*profile.Profile {
	pl.mu.Lock()
	pl.generation++
	version := pl.generation
	pl.mu.Unlock()

	distilled := pl.engine.FinishLearning(version)
	skus := make([]string, 0, len(distilled))
	for sku := range distilled {
		skus = append(skus, sku)
	}
	sort.Strings(skus)

	out := make([]*profile.Profile, 0, len(skus))
	for _, sku := range skus {
		prof := distilled[sku]
		out = append(out, prof)
		journal.Record(ctx, journal.TypeProfileLearned, journal.Info, sku,
			fmt.Sprintf("v%d: %d services, %d device(s), envelope %.0f f/s",
				prof.Version, len(prof.Services), prof.Devices, prof.MaxRate))
		pl.publish(prof)
	}
	pl.enforceProfiled(ctx, skus)
	return out
}

// publish shares a profile through the crowd link, if one is
// attached. Transport failures land in the durable outbox inside
// Publish; encode failures are impossible for engine-produced
// profiles but logged defensively.
func (pl *ProfilePlane) publish(prof *profile.Profile) {
	pl.p.mu.Lock()
	link := pl.p.crowd
	pl.p.mu.Unlock()
	if link == nil {
		return
	}
	encoded, err := profile.Encode(prof)
	if err != nil {
		journal.RecordTrace(0, journal.TypeProfileLearned, journal.Warn, prof.SKU,
			fmt.Sprintf("encode for publish failed: %v", err))
		return
	}
	_, _ = link.Publish(prof.SKU, encoded,
		fmt.Sprintf("behavior profile v%d (%d services)", prof.Version, len(prof.Services)))
}

// Install folds a profile (crowd-fetched or hand-authored) into the
// engine and refreshes enforcement if it changed.
func (pl *ProfilePlane) Install(ctx context.Context, prof *profile.Profile, source string) {
	eff, changed := pl.engine.AcceptProfile(prof)
	if eff == nil {
		return
	}
	if !changed {
		return
	}
	journal.Record(ctx, journal.TypeProfileLearned, journal.Info, eff.SKU,
		fmt.Sprintf("v%d installed from %s: %d services", eff.Version, source, len(eff.Services)))
	pl.enforceProfiled(ctx, []string{eff.SKU})
}

// installCrowd is the sigrepo push/replay path.
func (pl *ProfilePlane) installCrowd(rule string) {
	prof, err := profile.Decode(rule)
	if err != nil {
		journal.RecordTrace(0, journal.TypeProfileLearned, journal.Warn, "crowd",
			fmt.Sprintf("rejected crowd profile: %v", err))
		return
	}
	pl.Install(context.Background(), prof, "crowd")
}

// enforceProfiled (re-)pushes enforcement in enforce mode: every
// managed device whose SKU is in the list and has a profile, plus
// devices already enforced (profile refresh).
func (pl *ProfilePlane) enforceProfiled(ctx context.Context, skus []string) {
	pl.mu.Lock()
	auto := pl.enforceAll
	pl.mu.Unlock()
	want := make(map[string]bool, len(skus))
	for _, sku := range skus {
		want[sku] = true
	}
	enforced := make(map[string]bool)
	for _, name := range pl.engine.EnforcedDevices() {
		enforced[name] = true
	}
	pl.p.mu.Lock()
	names := make([]string, 0, len(pl.p.devices))
	for name, m := range pl.p.devices {
		if want[m.Device.Profile.SKU] && (auto || enforced[name]) {
			names = append(names, name)
		}
	}
	pl.p.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		_ = pl.EnforceDevice(ctx, name)
	}
}

// EnforceDevice compiles the device's SKU profile and installs it as
// a persisted steering rule set (deny floor + identity-pinned
// allows). Without steering attached yet, the request is parked and
// replayed by UseSteering. Live violation checking starts immediately
// either way — detection does not wait for the switch.
func (pl *ProfilePlane) EnforceDevice(ctx context.Context, name string) error {
	mods, prof, err := pl.engine.Enforce(name)
	if err != nil {
		return err
	}
	pl.p.mu.Lock()
	steering := pl.p.steering
	pl.p.mu.Unlock()
	if steering == nil {
		pl.mu.Lock()
		pl.pending[name] = true
		pl.mu.Unlock()
		journal.Record(ctx, journal.TypeProfileEnforced, journal.Debug, name,
			"enforcement parked: no steering attached")
		return nil
	}
	ctx, span := telemetry.StartSpan(ctx, "core.profile_enforce")
	steering.InstallRuleSet(ctx, "profile:"+name, mods)
	journal.Record(ctx, journal.TypeProfileEnforced, journal.Info, name,
		fmt.Sprintf("sku %s v%d: deny floor + %d rules (%d services)",
			prof.SKU, prof.Version, len(mods), len(prof.Services)))
	span.End()
	return nil
}

// steeringAttached is called by Platform.UseSteering: parked
// enforcement requests are replayed now that rules have somewhere to
// go.
func (pl *ProfilePlane) steeringAttached() {
	pl.mu.Lock()
	parked := make([]string, 0, len(pl.pending))
	for name := range pl.pending {
		parked = append(parked, name)
	}
	pl.pending = make(map[string]bool)
	pl.mu.Unlock()
	sort.Strings(parked)
	for _, name := range parked {
		_ = pl.EnforceDevice(context.Background(), name)
	}
}

// onViolation escalates a live profile violation: the violation and
// the anomaly it implies are journaled on one fresh causal chain, and
// the anomaly drives the posture FSM — so the familiar
// anomaly→posture→FLOW_MOD→mbox-reconfig sequence (and its MTTR
// accounting) covers profile events.
func (pl *ProfilePlane) onViolation(v profile.Violation) {
	pl.violations.Inc()
	pl.topViolators.Inc(v.Device)
	ctx, span := telemetry.StartSpan(context.Background(), "core.profile_violation")
	journal.Record(ctx, journal.TypeProfileViolation, journal.Warn, v.Device,
		fmt.Sprintf("%s: %s", v.Kind, v.Detail))
	journal.Record(ctx, journal.TypeAnomaly, journal.Warn, v.Device,
		fmt.Sprintf("%s: %s: %s (score 1.00)", ids.AnomalyProfile, v.Kind, v.Detail))
	pl.p.Global.View.HandleAnomaly(ctx, ids.Anomaly{
		Device: v.Device,
		Kind:   ids.AnomalyProfile,
		Detail: v.Kind + ": " + v.Detail,
		Score:  1,
		When:   v.When,
	})
	span.End()
}

// onRogue cuts an unregistered sender off at the switch. The
// quarantine persists in steering state (re-emitted on every switch
// reconnect) under a synthetic "rogue-<mac>" name.
func (pl *ProfilePlane) onRogue(mac packet.MACAddress, srcNode string) {
	ctx, span := telemetry.StartSpan(context.Background(), "core.rogue_quarantine")
	journal.Record(ctx, journal.TypeRogueQuarantine, journal.Critical, srcNode,
		fmt.Sprintf("unregistered MAC %s sourcing traffic; quarantining", mac))
	pl.p.mu.Lock()
	steering := pl.p.steering
	pl.p.mu.Unlock()
	if steering != nil {
		steering.Isolate(ctx, "rogue-"+mac.String(), mac)
	}
	span.End()
}
