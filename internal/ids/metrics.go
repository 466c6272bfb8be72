package ids

import "iotsec/internal/telemetry"

// Detection telemetry: signature-engine scan/match/block counters and
// anomaly triggers labeled by kind. The per-kind children are resolved
// through the vec's lock-free read path, which is a pointer load plus
// one map lookup — acceptable on the anomaly path, which already
// holds the profile mutex and formats detail strings.
var (
	mPacketsScanned = telemetry.NewCounter(
		"iotsec_ids_packets_scanned_total",
		"Packets evaluated by signature engines.")
	mRuleMatches = telemetry.NewCounter(
		"iotsec_ids_rule_matches_total",
		"Signature rule matches (alerts raised).")
	mBlocks = telemetry.NewCounter(
		"iotsec_ids_blocks_total",
		"Packets blocked by block-action rules.")
	mEngineBuilds = telemetry.NewCounter(
		"iotsec_ids_engine_builds_total",
		"Signature engines compiled (one per SKU rule-set generation in a running platform).")
	mAnomalies = telemetry.NewCounterVec(
		"iotsec_ids_anomalies_total",
		"Behavioral anomalies detected, by kind.", "kind")
)
