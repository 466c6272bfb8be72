package mbox

import "iotsec/internal/telemetry"

// Telemetry for the µmbox platform. Per-element counters are labeled
// vectors whose children are pre-resolved when a pipeline chain is
// (re)built, so the per-packet cost is plain atomic increments — no
// map lookups on the forwarding path. The pipeline latency histogram
// samples one in latencySampleEvery packets to keep the clock reads
// off the common case.
var (
	mElemProcessed = telemetry.NewCounterVec(
		"iotsec_mbox_element_processed_total",
		"Frames processed per pipeline element.", "element")
	mElemDropped = telemetry.NewCounterVec(
		"iotsec_mbox_element_dropped_total",
		"Frames dropped per pipeline element.", "element")
	mElemConsumed = telemetry.NewCounterVec(
		"iotsec_mbox_element_consumed_total",
		"Frames consumed (answered inline) per pipeline element.", "element")
	mElemPanics = telemetry.NewCounterVec(
		"iotsec_mbox_element_panics_total",
		"Panics recovered per pipeline element (frame dropped).", "element")
	mPipelineSeconds = telemetry.NewHistogram(
		"iotsec_mbox_pipeline_seconds",
		"Sampled wall time for one frame through an element chain.",
		telemetry.LatencyBuckets)
	mForwarded = telemetry.NewCounter(
		"iotsec_mbox_frames_forwarded_total",
		"Frames forwarded by µmboxes (all instances).")
	mDropped = telemetry.NewCounter(
		"iotsec_mbox_frames_dropped_total",
		"Frames dropped by µmboxes (all instances).")
	mConntrackEvicted = telemetry.NewCounter(
		"iotsec_mbox_conntrack_evicted_total",
		"Live flows forgotten by stateful firewalls to stay within their connection-table bound (drop-oldest).")
	mLoggerFrames = telemetry.NewCounter(
		"iotsec_mbox_logger_frames_total",
		"Frames seen by Logger elements (all instances).")
	mLoggerBytes = telemetry.NewCounter(
		"iotsec_mbox_logger_bytes_total",
		"Bytes seen by Logger elements (all instances).")
	mBoots = telemetry.NewCounter(
		"iotsec_mbox_boots_total",
		"µmbox instances booted.")
	mBootSeconds = telemetry.NewHistogram(
		"iotsec_mbox_boot_seconds",
		"Modeled boot latency per launched instance.",
		telemetry.LatencyBuckets)
	mReconfigures = telemetry.NewCounter(
		"iotsec_mbox_reconfigures_total",
		"Live pipeline reconfigurations via the manager.")
	mInstances = telemetry.NewGauge(
		"iotsec_mbox_instances",
		"µmbox instances currently running.")
)

// latencySampleEvery must be a power of two; one in this many frames
// pays the two clock reads feeding mPipelineSeconds.
const latencySampleEvery = 64
