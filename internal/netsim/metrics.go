package netsim

import (
	"fmt"
	"sort"

	"iotsec/internal/telemetry"
)

// Fabric-wide hot-path metrics. Counters are package-level aggregates
// across every network in the process (tests build many fabrics; the
// running daemons build one), so the write path is a single
// pre-resolved atomic increment.
var (
	mFramesDelivered = telemetry.NewCounter(
		"iotsec_netsim_frames_delivered_total",
		"Frames delivered across links.")
	mBytesDelivered = telemetry.NewCounter(
		"iotsec_netsim_bytes_delivered_total",
		"Bytes delivered across links.")
	mQueueDrops = telemetry.NewCounter(
		"iotsec_netsim_queue_drops_total",
		"Frames dropped on port inbox overflow.")
	mSwitchPacketsIn = telemetry.NewCounter(
		"iotsec_netsim_switch_packets_in_total",
		"Frames received by SDN switches.")
	mSwitchPacketsOut = telemetry.NewCounter(
		"iotsec_netsim_switch_packets_out_total",
		"Frames forwarded by SDN switches (unicast + flood copies).")
	mSwitchTableMiss = telemetry.NewCounter(
		"iotsec_netsim_switch_table_miss_total",
		"Frames that matched no flow entry: each was dropped, delivered to no port.")
	mPortsOpen = telemetry.NewGauge(
		"iotsec_netsim_ports_open",
		"Ports currently attached to fabrics (delivery goroutines).")
)

// Southbound-channel resilience metrics (agent side). Aggregated
// across every supervised agent in the process.
var (
	mAgentReconnects = telemetry.NewCounter(
		"iotsec_southbound_reconnects_total",
		"Southbound sessions re-established by agent supervisors.")
	mAgentSendErrors = telemetry.NewCounter(
		"iotsec_southbound_send_errors_total",
		"Southbound sends that failed on a live session (tears the session down).")
	mBufferEvictions = telemetry.NewCounter(
		"iotsec_southbound_buffer_evictions_total",
		"Oldest buffered events evicted from full degradation rings.")
	mAgentReplayed = telemetry.NewCounter(
		"iotsec_southbound_replayed_total",
		"Buffered events replayed to the controller after re-handshake.")
	mReplayDepth = telemetry.NewGauge(
		"iotsec_southbound_replay_depth",
		"Events currently buffered in degradation rings awaiting replay.")
)

// ExportTelemetry registers a scrape-time collector on reg exposing
// this switch's per-port statistics as
// iotsec_netsim_port_{tx,rx}_{frames,bytes} and
// iotsec_netsim_port_drops{kind=...}, labeled by switch and port. The
// collector walks live port counters at scrape time — nothing is
// added to the forwarding path. Re-registering (e.g. after rebuilding
// a platform) replaces the previous collector for the same switch
// name.
func (s *Switch) ExportTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		reg = telemetry.Default
	}
	name := s.name
	reg.RegisterCollector("netsim-switch:"+name, func(emit func(string, telemetry.Kind, string, telemetry.Labels, float64)) {
		s.mu.RLock()
		ids := make([]uint16, 0, len(s.ports))
		for id := range s.ports {
			ids = append(ids, id)
		}
		ports := make(map[uint16]*Port, len(s.ports))
		for id, p := range s.ports {
			ports[id] = p
		}
		s.mu.RUnlock()
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			st := ports[id].Stats()
			labels := telemetry.Labels{
				{Key: "switch", Value: name},
				{Key: "port", Value: fmt.Sprintf("%d", id)},
			}
			emit("iotsec_netsim_port_tx_frames", telemetry.KindGauge,
				"Frames transmitted by a switch port.", labels, float64(st.TxFrames))
			emit("iotsec_netsim_port_rx_frames", telemetry.KindGauge,
				"Frames received by a switch port.", labels, float64(st.RxFrames))
			emit("iotsec_netsim_port_tx_bytes", telemetry.KindGauge,
				"Bytes transmitted by a switch port.", labels, float64(st.TxBytes))
			emit("iotsec_netsim_port_rx_bytes", telemetry.KindGauge,
				"Bytes received by a switch port.", labels, float64(st.RxBytes))
			emit("iotsec_netsim_port_drops", telemetry.KindGauge,
				"Frames dropped at a switch port.",
				append(labels[:2:2], telemetry.Label{Key: "kind", Value: "queue"}), float64(st.DropsQueue))
		}
	})
}
