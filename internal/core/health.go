package core

import (
	"fmt"

	"iotsec/internal/telemetry"
)

// RegisterHealth registers the platform's core components in a
// component-health registry (the daemon passes
// telemetry.Default.Health() so /readyz aggregates them):
//
//   - "core" (critical): the policy/enforcement loop itself — Down
//     until Start and after Stop, when anomalies would be accepted but
//     never enforced.
//   - "mbox-cluster" (non-critical): µmbox placement capacity —
//     Degraded when every slot is in use, because the next posture
//     change that needs a fresh launch would fail.
func (p *Platform) RegisterHealth(h *telemetry.HealthRegistry) {
	h.Register("core", true, func() (telemetry.HealthState, string) {
		p.mu.Lock()
		started := p.started
		devices := len(p.devices)
		p.mu.Unlock()
		if !started {
			return telemetry.HealthDown, "platform not started (postures are not being enforced)"
		}
		if devices == 0 {
			return telemetry.HealthDegraded, "no devices under management"
		}
		return telemetry.HealthHealthy, ""
	})
	h.Register("mbox-cluster", false, func() (telemetry.HealthState, string) {
		total, used := p.Manager.Capacity()
		if total > 0 && used >= total {
			return telemetry.HealthDegraded, fmt.Sprintf(
				"cluster at capacity (%d/%d slots): next µmbox launch will fail", used, total)
		}
		return telemetry.HealthHealthy, ""
	})
}

// RegisterHealth registers the southbound channel's two halves:
//
//   - "southbound" (critical): the switch agent's supervised session.
//     Degraded while redialing (the switch serves its installed
//     table); Down when the supervisor has given up (reconnect
//     budget exhausted) — the link will not heal on its own.
//   - "controller-steering" (critical): the controller side. Down when
//     zero switch sessions are connected — a quarantine FLOW_MOD
//     issued now would reach no switch.
func (s *Southbound) RegisterHealth(h *telemetry.HealthRegistry) {
	h.Register("southbound", true, s.Agent.Health)
	steering := s.Steering
	h.Register("controller-steering", true, func() (telemetry.HealthState, string) {
		if steering == nil {
			return telemetry.HealthDown, "no steering application"
		}
		if n := steering.Switches(); n == 0 {
			return telemetry.HealthDown, "no connected southbound switch sessions (quarantine FLOW_MODs have no target)"
		}
		return telemetry.HealthHealthy, ""
	})
}

// RegisterHealth registers the northbound link as
// "sigrepo-link:<identity>" (non-critical: crowd updates are
// advisory, local enforcement works without them).
func (c *CrowdLink) RegisterHealth(h *telemetry.HealthRegistry, identity string) {
	c.mc.RegisterHealth(h, identity, false)
}
