package main

import (
	"fmt"
	"time"
)

// window is what one closed-loop measuring window produced.
type window struct {
	// samples are the primary operation's latencies in completion
	// order (event→posture delivery, frame→enforced, request→reply).
	samples []sample
	elapsed time.Duration
	// attempted/failed count operations; failed includes timeouts and
	// wrong outcomes.
	attempted, failed int
	// series carries the workload's secondary timings in ms or µs as
	// named (release_ms, the chain stages, ...), one value per cycle.
	series map[string][]float64
	// counts carries plain tallies (leaked_frames, escalations, ...).
	counts map[string]float64
	// reasons says why the first few failed operations failed.
	reasons []string
	// start/end bracket the window with process and registry readings
	// so per-op costs and counter deltas are for this window only.
	procStart, procEnd procStat
	ctrStart, ctrEnd   counterSet
}

func newWindow() *window {
	return &window{series: map[string][]float64{}, counts: map[string]float64{}}
}

// fail counts one failed operation and keeps the first few reasons for
// the report.
func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.reasons) < 5 {
		w.reasons = append(w.reasons, fmt.Sprintf(format, args...))
	}
}

func (w *window) open() {
	w.ctrStart = readCounters()
	w.procStart = readProc()
}

func (w *window) close(elapsed time.Duration) {
	w.elapsed = elapsed
	w.procEnd = readProc()
	w.ctrEnd = readCounters()
}

// then appends a later window to w. The registry and process readings
// then span both, which is only meaningful when b directly followed w.
func (w *window) then(b *window) *window {
	out := newWindow()
	out.samples = append(out.samples, w.samples...)
	for _, s := range b.samples {
		out.samples = append(out.samples, sample{at: s.at + w.elapsed.Nanoseconds(), lat: s.lat})
	}
	out.elapsed = w.elapsed + b.elapsed
	out.attempted, out.failed = w.attempted+b.attempted, w.failed+b.failed
	for _, src := range []*window{w, b} {
		for name, vals := range src.series {
			out.series[name] = append(out.series[name], vals...)
		}
		for name, v := range src.counts {
			out.counts[name] += v
		}
		out.reasons = append(out.reasons, src.reasons...)
	}
	out.procStart, out.ctrStart = w.procStart, w.ctrStart
	out.procEnd, out.ctrEnd = b.procEnd, b.ctrEnd
	return out
}

func (w *window) ctr(name string) float64 { return w.ctrEnd.since(w.ctrStart, name) }

// p50/p99/rate are the three headline reductions of a window.
func (w *window) p50() float64  { return median(latsMS(w.samples)) }
func (w *window) p99() float64  { return blockTail(latsMS(w.samples), 0.99) }
func (w *window) rate() float64 { return windowRate(w.samples, w.elapsed.Nanoseconds()) }

// seriesMedian is the median of a named secondary series (0 if absent).
func (w *window) seriesMedian(name string) float64 { return median(w.series[name]) }

// workload is one named traffic shape over a system built the way
// iotsecd builds it. setup is timed as setup_s; run is a closed loop
// for the given duration, recording spans when rec is true; layers
// runs the workload's layer probes on the same built system.
type workload interface {
	setup(seed int64) error
	run(d time.Duration, rec bool) *window
	// layers fills the per-layer metrics this workload owns from the
	// traced window and from probes; names it does not own stay 0.
	layers(traced *window, m metrics)
	// verify returns the output checks that failed, given the windows
	// that ran.
	verify(windows ...*window) []string
	recorders() []*recorder
	close()
}

// workloadNames lists the workloads in report order.
var workloadNames = []string{"fleet_1k", "fleet_100k", "frame_quarantine", "tunnel_requests"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "fleet_1k":
		return &fleet{size: 1_000}, nil
	case "fleet_100k":
		return &fleet{size: 100_000}, nil
	case "frame_quarantine":
		return &quarantine{}, nil
	case "tunnel_requests":
		return &tunnel{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// opTimeout bounds every wait a client makes for its enforcement or
// reply; an operation that hits it counts as failed.
const opTimeout = 2 * time.Second
