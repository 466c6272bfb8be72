package core

import "iotsec/internal/telemetry"

// End-to-end platform telemetry. The event→enforcement histogram is
// the live version of Figure 2's loop: from the view committing a
// state change (device event, alert, anomaly or environment reading)
// to the device's µmbox running the recomputed posture.
var (
	mEnforceSeconds = telemetry.NewHistogram(
		"iotsec_core_event_to_enforcement_seconds",
		"Latency from view commit to µmbox reconfiguration (Fig. 2 loop).",
		telemetry.LatencyBuckets)
	mPostureApplies = telemetry.NewCounter(
		"iotsec_core_posture_applies_total",
		"Postures applied to device µmboxes.")
	mPostureStale = telemetry.NewCounter(
		"iotsec_core_posture_stale_total",
		"Posture applications dropped because the device already runs a newer view version.")
	mDevicesAdded = telemetry.NewCounter(
		"iotsec_core_devices_added_total",
		"Devices brought under management.")
	mSigRulesAdded = telemetry.NewCounter(
		"iotsec_core_signature_rules_total",
		"Signature rules installed from repositories or operators.")
	mSigRulesDup = telemetry.NewCounter(
		"iotsec_core_signature_rules_dup_total",
		"Already-installed signature rules skipped (idempotent installs).")
)
