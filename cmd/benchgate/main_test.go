package main

import (
	"io"
	"strings"
	"testing"
)

func TestGate(t *testing.T) {
	for _, tc := range []struct {
		name         string
		parent, head string
		pass         bool
	}{
		{
			name:   "fastest of N wins",
			parent: "BenchmarkA-2  1000  100 ns/op\nBenchmarkA-2  1000  140 ns/op\n",
			// The slow head run is noise: its fastest run is +10%.
			head: "BenchmarkA-2  1000  200 ns/op\nBenchmarkA-2  1000  110 ns/op\n",
			pass: true,
		},
		{
			name:   "slowest of N does not rescue a regression",
			parent: "BenchmarkA-2  1000  100 ns/op\nBenchmarkA-2  1000  90 ns/op\n",
			head:   "BenchmarkA-2  1000  110 ns/op\nBenchmarkA-2  1000  105 ns/op\n",
			pass:   false,
		},
		{
			name:   "GOMAXPROCS suffix stripped",
			parent: "BenchmarkA/size=10-8  1000  100 ns/op\n",
			head:   "BenchmarkA/size=10-2  1000  101 ns/op  16 B/op  1 allocs/op\n",
			pass:   true,
		},
		{
			name:   "missing from head fails",
			parent: "BenchmarkA-2  1000  100 ns/op\nBenchmarkB-2  1000  100 ns/op\n",
			head:   "BenchmarkA-2  1000  100 ns/op\n",
			pass:   false,
		},
		{
			name:   "+16% fails",
			parent: "BenchmarkA-2  1000  100 ns/op\n",
			head:   "BenchmarkA-2  1000  116 ns/op\n",
			pass:   false,
		},
		{
			name:   "+14% passes",
			parent: "BenchmarkA-2  1000  100 ns/op\n",
			head:   "BenchmarkA-2  1000  114 ns/op\n",
			pass:   true,
		},
		{
			name:   "new in head is informational",
			parent: "BenchmarkA-2  1000  100 ns/op\n",
			head:   "BenchmarkA-2  1000  100 ns/op\nBenchmarkNew-2  10  9999999 ns/op\n",
			pass:   true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parent, err := parseBench(strings.NewReader(tc.parent))
			if err != nil {
				t.Fatal(err)
			}
			head, err := parseBench(strings.NewReader(tc.head))
			if err != nil {
				t.Fatal(err)
			}
			if got := gate(io.Discard, parent, head); got != tc.pass {
				t.Fatalf("gate = %v, want %v (parent %v, head %v)", got, tc.pass, parent, head)
			}
		})
	}
}

func TestParseBenchEmptyInputErrors(t *testing.T) {
	for _, in := range []string{"", "PASS\nok  \tiotsec\t1.2s\n"} {
		if _, err := parseBench(strings.NewReader(in)); err == nil {
			t.Fatalf("parseBench(%q) accepted input with no benchmark lines", in)
		}
	}
}
