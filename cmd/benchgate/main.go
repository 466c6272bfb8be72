// Command benchgate is the micro-benchmark regression gate: it reads
// two `go test -bench` outputs, one from the parent commit and one from
// the change, run on the same machine, and fails when any benchmark
// the parent ran is missing from the change or more than maxSlowdown
// slower there.
//
// Each output may hold several runs of a benchmark (-count=N); the
// fastest wins, which damps scheduler noise on small runners. The
// trailing -N GOMAXPROCS suffix is stripped from names. Benchmarks that
// only the change runs are printed but never fail the gate.
//
// Usage:
//
//	benchgate parent.txt head.txt
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// maxSlowdown is the largest ns/op increase, parent → head, that still
// passes. Five same-commit comparisons of the 13 benchmarks CI runs
// (fastest of six per side, 2-core box) moved by at most 14.8%, so 15%
// sits just above that noise and still fails a decoder that does its
// work twice (+37%).
const maxSlowdown = 0.15

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchgate parent.txt head.txt")
		os.Exit(2)
	}
	parent, err := parseFile(os.Args[1])
	if err != nil {
		fatal(err)
	}
	head, err := parseFile(os.Args[2])
	if err != nil {
		fatal(err)
	}
	if !gate(os.Stdout, parent, head) {
		fmt.Println("benchgate: regression against the parent")
		os.Exit(1)
	}
	fmt.Println("benchgate: no regression against the parent")
}

// gate prints one line per benchmark and reports whether every
// benchmark the parent ran is present in head and within maxSlowdown.
func gate(w io.Writer, parent, head map[string]float64) bool {
	ok := true
	for _, name := range sortedNames(parent) {
		was := parent[name]
		now, found := head[name]
		if !found {
			fmt.Fprintf(w, "FAIL  %-52s missing from head\n", name)
			ok = false
			continue
		}
		delta := (now - was) / was
		status := "ok  "
		if delta > maxSlowdown {
			status = "FAIL"
			ok = false
		}
		fmt.Fprintf(w, "%s  %-52s %10.1f → %10.1f ns/op  (%+.1f%%, limit +%.0f%%)\n",
			status, name, was, now, delta*100, maxSlowdown*100)
	}
	for _, name := range sortedNames(head) {
		if _, found := parent[name]; !found {
			fmt.Fprintf(w, "new   %-52s %10.1f ns/op\n", name, head[name])
		}
	}
	return ok
}

func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func parseFile(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	results, err := parseBench(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return results, nil
}

// parseBench extracts "BenchmarkName-N<tab>iters<tab>V ns/op ..." lines,
// keeping the fastest result per benchmark with the -N suffix removed.
func parseBench(r io.Reader) (map[string]float64, error) {
	results := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Benchmark lines are: name iterations value "ns/op" [more pairs]
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for i := 2; i+1 < len(fields); i++ {
			if fields[i+1] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad ns/op in %q: %w", line, err)
			}
			if prev, ok := results[name]; !ok || v < prev {
				results[name] = v
			}
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	return results, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
