package controller

import (
	"strconv"

	"iotsec/internal/telemetry"
)

// Control-plane telemetry. Counters on the commit/reconcile paths are
// process-wide aggregates; the replication-lag histogram captures the
// exact weakness §5.1 calls out in weakly consistent SDN state
// distribution, and the steering program histogram covers the
// FLOW_MOD + barrier round trip that gates enforcement.
var (
	mViewChanges = telemetry.NewCounter(
		"iotsec_controller_view_changes_total",
		"State-variable changes committed to views.")
	mRecomputes = telemetry.NewCounter(
		"iotsec_controller_recomputes_total",
		"Global posture recomputations.")
	mPostureChanges = telemetry.NewCounter(
		"iotsec_controller_posture_changes_total",
		"Posture deltas pushed to the enforcement sink.")
	mLocalHandled = telemetry.NewCounter(
		"iotsec_controller_local_handled_total",
		"Events absorbed by partition-local controllers.")
	mEscalations = telemetry.NewCounter(
		"iotsec_controller_escalations_total",
		"Events escalated to the global controller.")
	mReplicaLagSeconds = telemetry.NewHistogram(
		"iotsec_controller_replica_lag_seconds",
		"Commit-to-visibility lag per update applied at a weak replica.",
		telemetry.LatencyBuckets)
	mReplicaPending = telemetry.NewGauge(
		"iotsec_controller_replica_pending",
		"Updates offered to weak replicas but not yet visible.")
	mFlowMods = telemetry.NewCounter(
		"iotsec_controller_flow_mods_total",
		"FLOW_MOD messages sent southbound by the steering app.")

	// Control-plane failover metrics (§5.1 crash tolerance): the
	// deadman, checkpoint and recovery counters the supervisor drives,
	// plus the recovery-MTTR histogram the SLO watchdog taps.
	mCtrlSupervised = telemetry.NewGauge(
		"iotsec_controller_failover_supervised",
		"Local controllers under deadman supervision.")
	mCtrlMissedBeats = telemetry.NewCounter(
		"iotsec_controller_failover_missed_beats_total",
		"Deadman probes that found a local controller unresponsive.")
	mCtrlFailovers = telemetry.NewCounter(
		"iotsec_controller_failover_total",
		"Local controllers declared dead and failed over.")
	mCtrlCheckpoints = telemetry.NewCounter(
		"iotsec_controller_failover_checkpoints_total",
		"Partition state checkpoints taken by the supervisor.")
	mCtrlQuarantineRepush = telemetry.NewCounter(
		"iotsec_controller_failover_quarantine_repush_total",
		"Quarantines re-asserted during recovery, before state restore.")
	mCtrlRehomed = telemetry.NewGauge(
		"iotsec_controller_failover_rehomed_partitions",
		"Partitions currently routed to a replacement home.")
	mCtrlRecoverySeconds = telemetry.NewHistogram(
		"iotsec_controller_recovery_seconds",
		"Failover detection-to-recovery MTTR per partition.",
		telemetry.LatencyBuckets)
)

// RecoveryHistogram exposes the recovery-MTTR histogram so the SLO
// watchdog (iotsecd -slo-recovery-p99) can tap it as a Source.
func RecoveryHistogram() *telemetry.Histogram { return mCtrlRecoverySeconds }

// ExportTelemetry registers a scrape-time collector exposing this
// partitioning's group sizes as iotsec_controller_partition_devices
// labeled by group index. Re-registering under the same id replaces
// the previous collector.
func (p *Partitioning) ExportTelemetry(reg *telemetry.Registry, id string) {
	if reg == nil {
		reg = telemetry.Default
	}
	groups := make([][]string, len(p.Groups))
	copy(groups, p.Groups)
	reg.RegisterCollector("controller-partitioning:"+id, func(emit func(string, telemetry.Kind, string, telemetry.Labels, float64)) {
		for i, g := range groups {
			emit("iotsec_controller_partition_devices", telemetry.KindGauge,
				"Devices per interaction partition.",
				telemetry.Labels{
					{Key: "partitioning", Value: id},
					{Key: "group", Value: strconv.Itoa(i)},
				}, float64(len(g)))
		}
	})
}
