package main

import (
	"testing"

	"iotsec/internal/telemetry"
)

// parseHistogram reassembles histograms from snapshot samples that
// arrive sorted by label string (le="+Inf" before le="0.001"); the
// quantiles it re-derives must be the ones the daemon itself reports.
func TestParseHistogramMatchesQuantile(t *testing.T) {
	reg := telemetry.NewRegistry()
	vec := reg.NewHistogramVec("iotsec_test_stage_seconds", "stage latency", telemetry.LatencyBuckets, "stage")
	obs := map[string][]float64{
		"posture":  {0.0002, 0.0004, 0.0011, 0.003, 0.003, 0.04},
		"flow-mod": {0.00005, 0.12, 0.9, 7, 100}, // last lands in +Inf
	}
	for stage, vs := range obs {
		for _, v := range vs {
			vec.With(stage).Observe(v)
		}
	}

	var series []histSeries
	for _, m := range reg.Snapshot(0).Metrics {
		if m.Name == "iotsec_test_stage_seconds" {
			series = parseHistogram(m)
		}
	}
	if len(series) != len(obs) {
		t.Fatalf("series = %d, want %d", len(series), len(obs))
	}
	for _, h := range series {
		stage := labelOf(h.key, "stage")
		want := vec.With(stage)
		if h.count != float64(len(obs[stage])) || h.count != float64(want.Count()) {
			t.Errorf("%s: count = %g, want %d", stage, h.count, want.Count())
		}
		for _, q := range []float64{0.5, 0.95, 0.99} {
			if got := h.quantile(q); got != want.Quantile(q) {
				t.Errorf("%s: p%g = %g, want %g", stage, q*100, got, want.Quantile(q))
			}
		}
	}
}
