package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSet is what -runs writes and -compare reads: every run's value of
// every metric, per workload.
type runSet struct {
	Env     environment                     `json:"environment"`
	Seconds int                             `json:"seconds"`
	Seeds   []int64                         `json:"seeds"`
	Values  map[string]map[string][]float64 `json:"values"` // workload → metric → one value per run
}

// repeatRuns runs each workload n times, one process per run (peak RSS
// and the process-wide journal must start fresh), with seeds
// seed..seed+n-1, and prints median and quartiles per metric.
func repeatRuns(names []string, seed int64, seconds int, mode traceMode, n int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(1, "%v", err)
	}
	set := runSet{Env: readEnvironment(), Seconds: seconds, Values: map[string]map[string][]float64{}}
	for i := 0; i < n; i++ {
		set.Seeds = append(set.Seeds, seed+int64(i))
	}
	status := 0
	for _, name := range names {
		set.Values[name] = map[string][]float64{}
		for _, s := range set.Seeds {
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", string(mode))
			cmd.Stderr = os.Stderr
			raw, err := cmd.Output()
			line, perr := lastLine(raw)
			if perr != nil {
				fatal(1, "%s seed %d: %v (%v)", name, s, perr, err)
			}
			if err != nil || !line.Correct {
				fmt.Printf("%s seed %d: checks failed\n", name, s)
				for _, l := range bytes.Split(raw, []byte("\n")) {
					if bytes.Contains(l, []byte("CHECK FAILED")) {
						fmt.Printf("%s\n", l)
					}
				}
				status = 1
			}
			for metric, v := range line.Metrics {
				set.Values[name][metric] = append(set.Values[name][metric], v.Value)
			}
		}
		fmt.Printf("== %s  %d runs, seeds %d..%d, %ds each\n", name, n, seed, seed+int64(n)-1, seconds)
		fmt.Printf("   %-32s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "iqr/med")
		for _, spec := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
			vals, ok := set.Values[name][spec.Name]
			if !ok {
				continue
			}
			q1, q2, q3 := quartiles(vals)
			fmt.Printf("   %-32s %14.4f %14.4f %14.4f %7.1f%% %s\n", spec.Name, q1, q2, q3, 100*spread(vals), spec.Unit)
		}
	}
	if out != "" {
		if err := writeJSON(out, set); err != nil {
			fatal(1, "%v", err)
		}
	}
	return status
}

// lastLine parses the result object a run prints last.
func lastLine(stdout []byte) (resultLine, error) {
	trimmed := bytes.TrimSpace(stdout)
	var line resultLine
	if err := json.Unmarshal(trimmed[bytes.LastIndexByte(trimmed, '\n')+1:], &line); err != nil {
		return line, fmt.Errorf("no result line: %w", err)
	}
	return line, nil
}

// spread is the run-to-run spread the acceptance driver uses: the
// distance between the first and third quartile as a share of the
// median.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// worseBy is how much worse b's median is than a's, as a share of a's
// (negative = better), given which direction is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if len(sa) == 0 || len(sb) == 0 {
		return false
	}
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// verdict applies one end-to-end metric's bound to one (metric,
// workload) row. A row whose own run-to-run spread exceeds the bound
// cannot be called unchanged: it is unresolved, unless every run of b
// beats every run of a.
func verdict(spec metricSpec, a, b []float64) string {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worse := worseBy(ma, mb, spec.Better)
	noisy := spread(a) > spec.Bound || spread(b) > spec.Bound
	switch {
	case allBetter(a, b, spec.Better):
		return "improved"
	case noisy:
		return "unresolved"
	case worse > spec.Bound:
		return "REGRESSED"
	default:
		return "unchanged"
	}
}

// compareFiles prints one row per (end-to-end metric, workload) and
// returns 1 if any row regressed.
func compareFiles(pathA, pathB string) int {
	var a, b runSet
	for path, dst := range map[string]*runSet{pathA: &a, pathB: &b} {
		raw, err := os.ReadFile(path)
		if err != nil {
			fatal(1, "%v", err)
		}
		if err := json.Unmarshal(raw, dst); err != nil {
			fatal(1, "%s: %v", path, err)
		}
	}
	fmt.Printf("a = %s (%s, %s)\nb = %s (%s, %s)\n", pathA, a.Env.Commit, a.Env.CPU, pathB, b.Env.Commit, b.Env.CPU)
	fmt.Printf("%-18s %-16s %12s %12s %18s %7s %9s %9s  %s\n",
		"workload", "metric", "median a", "median b", "b/a", "bound", "spread a", "spread b", "verdict")
	status := 0
	for _, name := range workloadNames {
		for _, spec := range endToEnd {
			va, vb := a.Values[name][spec.Name], b.Values[name][spec.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			v := verdict(spec, va, vb)
			if v == "REGRESSED" {
				status = 1
			}
			ratio := "n/a"
			if ma != 0 {
				ratio = fmt.Sprintf("%.3f of %.4g %s", mb/ma, ma, spec.Unit)
			}
			fmt.Printf("%-18s %-16s %12.4f %12.4f %18s %6.0f%% %8.1f%% %8.1f%%  %s\n",
				name, spec.Name, ma, mb, ratio, 100*spec.Bound, 100*spread(va), 100*spread(vb), v)
		}
	}
	return status
}
