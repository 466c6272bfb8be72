// Command iotsim regenerates every table and figure of the paper plus
// the design-choice ablations, printing paper-style rows.
//
// Usage:
//
//	iotsim                  # run everything
//	iotsim -exp t1          # one experiment: t1 t2 f1 f2 f3 f4 f5 a1..a6 a12 a13
//	iotsim -exp t1,f2,a5    # a comma-separated subset
//	iotsim -failover 1000,10000       # control-plane failover chaos (A12)
//	iotsim -replay incident.json      # replay a captured incident (A13)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/experiment"
	"iotsec/internal/journal"
)

func main() {
	exp := flag.String("exp", "all", "experiments to run (comma-separated: t1,t2,f1..f5,a1..a6,a12,a13, or all)")
	seed := flag.Int64("seed", 1, "seed for synthesized corpora")
	failover := flag.String("failover", "", "run the failover chaos sweep at these comma-separated fleet sizes (A12)")
	failoverShard := flag.Int("failover-shard", 64, "devices per local controller in the failover sweep")
	failoverKill := flag.Int("failover-kill", 3, "local controllers killed mid-quarantine per size")
	failoverMode := flag.String("failover-mode", "rehome", "fail mode under test: rehome or fail-global")
	failoverOut := flag.String("failover-out", "", "write the failover results (JSON) to this file")
	replay := flag.String("replay", "", "replay a captured incident scenario (JSON from mboxctl incidents export) as a regression check (A13)")
	replayOut := flag.String("replay-out", "", "write the replay verdict (JSON) to this file")
	flag.Parse()

	if *failover != "" {
		os.Exit(runFailoverSweep(*failover, *failoverShard, *failoverKill, *failoverMode, *failoverOut))
	}
	if *replay != "" {
		os.Exit(runReplay(*replay, *replayOut))
	}

	runners := []struct {
		id  string
		run func() (*experiment.Table, error)
	}{
		{"t1", experiment.RunTable1},
		{"t2", func() (*experiment.Table, error) { return experiment.RunTable2(*seed), nil }},
		{"f1", experiment.RunFigure1},
		{"f2", experiment.RunFigure2},
		{"f3", experiment.RunFigure3},
		{"f4", experiment.RunFigure4},
		{"f5", experiment.RunFigure5},
		{"a1", func() (*experiment.Table, error) { return experiment.RunAblationStatePruning(), nil }},
		{"a2", func() (*experiment.Table, error) {
			return experiment.RunAblationHierarchy(2*time.Millisecond, *seed), nil
		}},
		{"a3", experiment.RunAblationMicroMbox},
		{"a4", func() (*experiment.Table, error) { return experiment.RunAblationFuzzCoverage(*seed), nil }},
		{"a5", func() (*experiment.Table, error) { return experiment.RunAblationReputation(*seed), nil }},
		{"a6", func() (*experiment.Table, error) { return experiment.RunAblationConsistency(*seed), nil }},
		{"a12", func() (*experiment.Table, error) {
			tbl, results, err := experiment.RunFailover(experiment.FailoverOptions{
				Sizes: []int{1_000, 10_000}, Progress: os.Stderr,
			})
			if err != nil {
				dumpFailoverArtifacts(results)
			}
			return tbl, err
		}},
		{"a13", func() (*experiment.Table, error) { return experiment.RunA13(os.Stderr) }},
	}

	// -exp accepts a comma-separated subset; every requested id must
	// exist, and unknown ids exit nonzero.
	want := map[string]bool{}
	all := false
	for _, id := range strings.Split(strings.ToLower(*exp), ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if id == "all" {
			all = true
			continue
		}
		want[id] = true
	}
	known := map[string]bool{}
	for _, r := range runners {
		known[r.id] = true
	}
	for id := range want {
		if !known[id] {
			fmt.Fprintf(os.Stderr, "iotsim: unknown experiment %q\n", id)
			os.Exit(2)
		}
	}
	if !all && len(want) == 0 {
		fmt.Fprintf(os.Stderr, "iotsim: unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	total := time.Now()
	ran := 0
	for _, r := range runners {
		if !all && !want[r.id] {
			continue
		}
		start := time.Now()
		tbl, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "iotsim: %s failed: %v\n", r.id, err)
			os.Exit(1)
		}
		tbl.Print(os.Stdout)
		fmt.Printf("  (%s completed in %v)\n", strings.ToUpper(r.id), time.Since(start).Round(time.Millisecond))
		ran++
	}
	fmt.Printf("\n%d experiment(s) in %v\n", ran, time.Since(total).Round(time.Millisecond))
}

// runFailoverSweep parses sizes and runs the A12 control-plane
// failover chaos harness: local controllers are killed mid-quarantine
// and the run fails if any frame reaches a quarantined device during
// the failover window, if recovery misses the SLO, or if post-recovery
// state diverges from the never-failed control run.
func runFailoverSweep(sizesCSV string, shard, kill int, mode, outPath string) int {
	var sizes []int
	for _, s := range strings.Split(sizesCSV, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "iotsim: bad failover fleet size %q\n", s)
			return 2
		}
		sizes = append(sizes, n)
	}
	fm, ok := controller.ParseFailMode(mode)
	if !ok {
		fmt.Fprintf(os.Stderr, "iotsim: bad failover mode %q (rehome or fail-global)\n", mode)
		return 2
	}
	start := time.Now()
	tbl, results, err := experiment.RunFailover(experiment.FailoverOptions{
		Sizes:      sizes,
		ShardSize:  shard,
		KillShards: kill,
		FailMode:   fm,
		Progress:   os.Stderr,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "iotsim: failover sweep failed: %v\n", err)
		dumpFailoverArtifacts(results)
		return 1
	}
	tbl.Print(os.Stdout)
	fmt.Printf("  (A12 completed in %v)\n", time.Since(start).Round(time.Millisecond))
	if outPath != "" && len(results) > 0 {
		if err := writeJSON(outPath, results); err != nil {
			fmt.Fprintf(os.Stderr, "iotsim: %v\n", err)
			return 1
		}
		fmt.Printf("  failover results: %s\n", outPath)
	}
	return 0
}

// runReplay re-drives one exported incident scenario (A13) and exits
// nonzero unless every expected chain stage re-fired within the SLO.
func runReplay(path, outPath string) int {
	start := time.Now()
	res, err := experiment.RunReplayFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iotsim: replay: %v\n", err)
		return 1
	}
	verdict := "PASS"
	if !res.Passed {
		verdict = "FAIL"
	}
	fmt.Printf("A13 replay %s: %s incident %s", verdict, res.Kind, res.Incident)
	if res.Device != "" {
		fmt.Printf(" (device %s)", res.Device)
	}
	fmt.Printf("\n  stages expected %v observed %v in %.3fs (SLO %.3fs)\n",
		res.Expected, res.Observed, res.ElapsedSeconds, res.SLOSeconds)
	if res.Chain != "" {
		fmt.Printf("  replayed chain: %s\n", res.Chain)
	}
	if res.Error != "" {
		fmt.Fprintf(os.Stderr, "iotsim: replay: %s\n", res.Error)
	}
	fmt.Printf("  (A13 completed in %v)\n", time.Since(start).Round(time.Millisecond))
	if outPath != "" {
		if err := writeJSON(outPath, res); err != nil {
			fmt.Fprintf(os.Stderr, "iotsim: %v\n", err)
			return 1
		}
		fmt.Printf("  replay verdict: %s\n", outPath)
	}
	if !res.Passed {
		return 1
	}
	return 0
}

// dumpFailoverArtifacts exports the post-mortem material when the
// chaos run fails: the forensic journal as NDJSON to
// $IOTSEC_FAILOVER_JOURNAL and the per-size results (failover records,
// fingerprints) to $IOTSEC_FAILOVER_SNAPSHOT — the CI failover stage
// uploads both.
func dumpFailoverArtifacts(results []experiment.FailoverResult) {
	if path := os.Getenv("IOTSEC_FAILOVER_JOURNAL"); path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "iotsim: journal dump: %v\n", err)
		} else {
			enc := json.NewEncoder(f)
			for _, e := range journal.Default.Snapshot(journal.Filter{}) {
				_ = enc.Encode(e)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "iotsim: forensic journal dumped to %s\n", path)
		}
	}
	if path := os.Getenv("IOTSEC_FAILOVER_SNAPSHOT"); path != "" {
		if err := writeJSON(path, results); err != nil {
			fmt.Fprintf(os.Stderr, "iotsim: snapshot dump: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "iotsim: failover snapshot dumped to %s\n", path)
		}
	}
}

// writeJSON writes v indented to path.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
