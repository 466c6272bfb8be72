package openflow

import "iotsec/internal/telemetry"

// Southbound-channel resilience metrics (controller side), aggregated
// across every endpoint in the process. The agent-side counterparts
// (reconnects, buffer evictions, replay depth) live in internal/netsim.
var (
	mSessions = telemetry.NewGauge(
		"iotsec_southbound_sessions",
		"Switch sessions currently registered on controller endpoints.")
	mHeartbeatMisses = telemetry.NewCounter(
		"iotsec_southbound_heartbeat_misses_total",
		"Heartbeat intervals that elapsed with the previous ECHO unanswered.")
	mSessionsReaped = telemetry.NewCounter(
		"iotsec_southbound_sessions_reaped_total",
		"Half-dead switch sessions reaped by the missed-beat threshold.")
)
