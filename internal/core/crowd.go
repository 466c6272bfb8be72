package core

import (
	"fmt"
	"sort"

	"iotsec/internal/profile"
	"iotsec/internal/sigrepo"
	"iotsec/internal/telemetry"
)

// CrowdLink connects a platform to a signature repository through a
// supervised session (sigrepo.ManagedClient): cleared signatures for
// any managed SKU flow into the running IDS µmboxes, the platform can
// share what it observes, and the link survives repository outages —
// reconnecting under backoff, resuming each SKU feed from its cursor,
// and queueing publishes/votes in a durable outbox meanwhile. Rule
// installation is idempotent, so replayed notifications never
// duplicate IDS state.
type CrowdLink struct {
	platform *Platform
	mc       *sigrepo.ManagedClient
}

// ConnectSigrepo dials the repository as the given identity and
// subscribes to every SKU currently under management. Pushed and
// replayed signatures are installed live and idempotently. opts sets
// the resilience options (backoff schedule, outbox path, custom dialer
// for fault injection); the platform fills SKUs and OnInstall unless
// the caller overrides them.
func (p *Platform) ConnectSigrepo(addr, identity string, opts sigrepo.ManagedOptions) (*CrowdLink, error) {
	if opts.SKUs == nil {
		opts.SKUs = p.managedSKUs
	}
	if opts.OnInstall == nil {
		opts.OnInstall = func(sig sigrepo.Signature, replayed bool) {
			// Behavior profiles share the signature feed as an alternate
			// payload dialect; route them to the profile plane (a no-op
			// until EnableProfiles). AcceptProfile ignores stale versions,
			// so cursor replays never regress the active profile.
			if profile.IsEncoded(sig.Rule) {
				if plane, ok := p.Profiles(); ok {
					plane.installCrowd(sig.Rule)
				}
				return
			}
			// Installation failures (malformed community rules) must not
			// kill the push loop; AddSignatureRule dedupes replays.
			_ = p.AddSignatureRule(sig.SKU, sig.Rule)
		}
	}
	mc, err := sigrepo.DialManaged(addr, identity, opts)
	if err != nil {
		return nil, fmt.Errorf("core: sigrepo: %w", err)
	}
	mc.ExportTelemetry(telemetry.Default, identity)
	l := &CrowdLink{platform: p, mc: mc}
	p.mu.Lock()
	p.crowd = l
	p.mu.Unlock()
	return l, nil
}

// managedSKUs lists distinct SKUs under management, sorted.
func (p *Platform) managedSKUs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	seen := map[string]bool{}
	for _, m := range p.devices {
		seen[m.Device.Profile.SKU] = true
	}
	out := make([]string, 0, len(seen))
	for sku := range seen {
		out = append(out, sku)
	}
	sort.Strings(out)
	return out
}

// Publish shares a locally observed signature with the community.
// While the link is degraded the signature is queued in the outbox
// and delivered on reconnect; the return is then (nil, nil).
func (l *CrowdLink) Publish(sku, rule, description string) (*sigrepo.Signature, error) {
	return l.mc.Publish(sku, rule, description)
}

// Vote casts this deployment's verdict on a community signature
// (queued while degraded, like Publish).
func (l *CrowdLink) Vote(sigID string, up bool) error {
	_, err := l.mc.Vote(sigID, up)
	return err
}

// Watch subscribes an additional SKU (e.g. a device class onboarded
// after connect); the feed backfills from cursor 0.
func (l *CrowdLink) Watch(sku string) error { return l.mc.Watch(sku) }

// Managed exposes the underlying supervised client (link state,
// cursors, outbox depth).
func (l *CrowdLink) Managed() *sigrepo.ManagedClient { return l.mc }

// Close stops the supervised session and persists any queued work.
func (l *CrowdLink) Close() { l.mc.Close() }
