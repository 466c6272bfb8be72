package main

// metricSpec names one metric the benchmark prints. BENCHMARK.json at
// the repository root lists the same names; bench_test.go checks the
// two agree.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// endToEnd are the numbers a user of the system sees. Every workload
// reports every one of them and none is ever zero; what the "operation"
// is depends on the workload (README: latency_* is detect→enforce on
// fleet_1k, fleet_100k and frame_quarantine and request→reply on
// tunnel_requests; ops_per_s counts events, quarantine+release cycles
// and requests).
var endToEnd = []metricSpec{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer numbers, module name first. A workload
// reports 0 for a layer that is not on its path.
var perLayer = []metricSpec{
	// Outcome tallies the contract keeps out of end_to_end because they
	// must be zero (or exist on one workload only).
	{Name: "failed_share", Unit: "%", Better: "lower"},
	{Name: "leaked_frames", Unit: "count", Better: "lower"},
	{Name: "release_p50_ms", Unit: "ms", Better: "lower"},

	// Chain stages of one quarantine, from journal timestamps.
	{Name: "mbox.detect_us", Unit: "us", Better: "lower"},
	{Name: "controller.view_commit_us", Unit: "us", Better: "lower"},
	{Name: "policy.posture_us", Unit: "us", Better: "lower"},
	{Name: "controller.flowmod_emit_us", Unit: "us", Better: "lower"},
	{Name: "openflow.southbound_rtt_us", Unit: "us", Better: "lower"},
	{Name: "mbox.swap_us", Unit: "us", Better: "lower"},
	{Name: "chain.unexplained_us", Unit: "us", Better: "lower"},

	// Data-plane probes.
	{Name: "packet.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "packet.decode_allocs", Unit: "count", Better: "lower"},
	{Name: "openflow.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "openflow.table_entries", Unit: "count", Better: "lower"},
	{Name: "ids.match_ns", Unit: "ns", Better: "lower"},
	{Name: "ids.rules", Unit: "count", Better: "higher"},
	{Name: "mbox.pipeline_ns", Unit: "ns", Better: "lower"},
	{Name: "mbox.pipeline_allocs", Unit: "count", Better: "lower"},
	{Name: "profile.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.hop_us", Unit: "us", Better: "lower"},
	{Name: "netsim.flood_fanout", Unit: "count", Better: "lower"},
	{Name: "netsim.queue_drops", Unit: "count", Better: "lower"},
	{Name: "mbox.forwarded", Unit: "count", Better: "lower"},
	{Name: "mbox.dropped", Unit: "count", Better: "lower"},
	{Name: "mbox.alerts", Unit: "count", Better: "higher"},

	// Control-plane probes.
	{Name: "controller.event_us", Unit: "us", Better: "lower"},
	{Name: "controller.event_allocs", Unit: "count", Better: "lower"},
	{Name: "controller.escalated_share", Unit: "%", Better: "lower"},
	{Name: "controller.posture_deliveries", Unit: "count", Better: "higher"},
	{Name: "policy.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "journal.append_ns", Unit: "ns", Better: "lower"},
	{Name: "journal.appended", Unit: "count", Better: "lower"},
	{Name: "journal.tail_drops", Unit: "count", Better: "lower"},
	{Name: "telemetry.rollup_flush_us", Unit: "us", Better: "lower"},

	// Wire and swap probes.
	{Name: "controller.isolate_us", Unit: "us", Better: "lower"},
	{Name: "controller.release_us", Unit: "us", Better: "lower"},
	{Name: "openflow.flowmod_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "mbox.reconfigure_us", Unit: "us", Better: "lower"},
	{Name: "ids.engine_build_us", Unit: "us", Better: "lower"},
	{Name: "core.restore_us", Unit: "us", Better: "lower"},

	// Planes and process.
	{Name: "slo.chains_complete", Unit: "count", Better: "higher"},
	{Name: "slo.chains_incomplete", Unit: "count", Better: "lower"},
	{Name: "slo.tap_evicted", Unit: "count", Better: "lower"},
	{Name: "forensics.incidents_sealed", Unit: "count", Better: "higher"},
	{Name: "forensics.seal_us", Unit: "us", Better: "lower"},
	{Name: "forensics.dropped", Unit: "count", Better: "lower"},
	{Name: "process.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "process.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "process.goroutines", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// stageNames are the chain stages in causal order; with
// chain.unexplained_us they add up to the quarantine cycle.
var stageNames = []string{
	"mbox.detect_us",
	"controller.view_commit_us",
	"policy.posture_us",
	"controller.flowmod_emit_us",
	"openflow.southbound_rtt_us",
	"mbox.swap_us",
}
