package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestSmoke runs every workload for about a second, end-to-end and
// per-layer, and asserts every metric name appears and every output
// check passes. The 100k fleet's set-up takes several seconds, so it
// is left to the full run unless -short is off.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		name := name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "fleet_100k" {
				t.Skip("100k-device set-up is seconds long; run without -short")
			}
			rep, err := runWorkload(name, 7, 1, traceBoth)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rep.Failures {
				t.Errorf("check failed: %s", f)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			line := rep.resultLine()
			for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
				if _, ok := line.Metrics[s.Name]; !ok {
					t.Errorf("metric %s missing from the result line", s.Name)
				}
			}
			for _, s := range endToEnd {
				if v := rep.EndToEnd[s.Name]; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", s.Name, v)
				}
			}
			if _, err := os.Stat("out/trace-" + name + ".json"); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json and the metric tables in
// this package naming the same workloads, metrics, units and bounds.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricSpec                 `json:"end_to_end"`
		PerLayer  []metricSpec                 `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, driver %q", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the driver %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, driver %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	// 1000 samples leave exactly ten beyond p99; 999 leave nine.
	if beyond(1000, 0.99) != 10 || beyond(999, 0.99) != 9 {
		t.Errorf("beyond(1000,.99)=%d beyond(999,.99)=%d", beyond(1000, 0.99), beyond(999, 0.99))
	}
}

func TestBlockTail(t *testing.T) {
	// 3000 samples: 1..1000 three times over, with one block ruined by
	// a stall. The median of the three block p99s ignores the stall.
	var lats []float64
	for b := 0; b < 3; b++ {
		for i := 1; i <= 1000; i++ {
			v := float64(i)
			if b == 1 && i > 900 {
				v = 1e6
			}
			lats = append(lats, v)
		}
	}
	if got := blockTail(lats, 0.99); got != 990 {
		t.Errorf("blockTail = %v, want 990", got)
	}
	// Too few samples for one full block: a single block, plain p99.
	if got := blockTail([]float64{3, 1, 2}, 0.99); got != 3 {
		t.Errorf("short blockTail = %v, want 3", got)
	}
}

func TestWindowRate(t *testing.T) {
	// Five whole seconds at 100, 100, 7, 100, 100 completions, then a
	// partial sixth: the stalled second and the partial one do not move
	// the median.
	var samples []sample
	for sec, n := range []int{100, 100, 7, 100, 100, 40} {
		for i := 0; i < n; i++ {
			samples = append(samples, sample{at: int64(sec)*1e9 + int64(i)*1e6})
		}
	}
	if got := windowRate(samples, 5.4e9); got != 100 {
		t.Errorf("windowRate = %v, want 100", got)
	}
	if got := windowRate(samples[:50], 0.5e9); got != 100 {
		t.Errorf("sub-second windowRate = %v, want 100/s", got)
	}
}

func TestStagesTelescope(t *testing.T) {
	marks := []int64{0, 120, 127, 250, 255, 370, 410}
	stages := telescope(marks)
	if len(stages) != len(stageNames) {
		t.Fatalf("%d stages for %d names", len(stages), len(stageNames))
	}
	var sum int64
	asFloat := make([]float64, len(stages))
	for i, s := range stages {
		sum += s
		asFloat[i] = float64(s)
	}
	if sum != marks[len(marks)-1]-marks[0] {
		t.Errorf("stages sum to %d, cycle is %d", sum, marks[len(marks)-1]-marks[0])
	}
	if r := remainder(410, asFloat); r != 0 {
		t.Errorf("per-cycle remainder = %v, want 0", r)
	}
	// Stage medians need not add up to the cycle median; what is left is
	// reported, so stages + remainder = cycle always.
	medians := []float64{100, 5, 110, 4, 100, 30}
	rem := remainder(400, medians)
	total := rem
	for _, s := range medians {
		total += s
	}
	if math.Abs(total-400) > 1e-9 {
		t.Errorf("stages + remainder = %v, want 400", total)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	spec := metricSpec{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(k float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * k
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0}
	for _, tc := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", steady, "unchanged"},
		{"within bound", scale(1.05), "unchanged"},
		{"past bound", scale(1.2), "REGRESSED"},
		{"every run better", scale(0.8), "improved"},
		{"spread wider than bound", noisy, "unresolved"},
	} {
		if got := verdict(spec, steady, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}
