package experiment

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"iotsec/internal/controller"
	"iotsec/internal/device"
	"iotsec/internal/policy"
	"iotsec/internal/telemetry"
)

// FleetOptions parameterizes the fleet load harness (A10).
type FleetOptions struct {
	// Sizes lists the fleet sizes to sweep (default 1e3, 1e4, 1e5).
	Sizes []int
	// ShardSize is the devices-per-local-controller cap (default 64).
	ShardSize int
	// Duration is the event-driving window per size (default 2s).
	Duration time.Duration
	// Progress, when set, receives one line as each size completes.
	Progress io.Writer
}

// FleetResult is one fleet size's measured outcome.
type FleetResult struct {
	Size         int     `json:"size"`
	Shards       int     `json:"shards"`
	Workers      int     `json:"workers"`
	Events       uint64  `json:"events"`
	Escalated    uint64  `json:"escalated"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Fleet-merged detect→enforce quantiles (seconds), re-derived from
	// the rollup plane's merged histogram.
	P50 float64 `json:"p50_seconds"`
	P95 float64 `json:"p95_seconds"`
	P99 float64 `json:"p99_seconds"`
	// Direct (pooled, unsharded) measurement of the same observations,
	// the ground truth the merged view must reproduce.
	DirectP99   float64 `json:"direct_p99_seconds"`
	MergedCount uint64  `json:"merged_count"`
	DirectCount uint64  `json:"direct_count"`
	StaleShards int     `json:"stale_shards"`

	// View is the final merged fleet snapshot (CI artifact material).
	View controller.FleetView `json:"view"`
}

// fleetRollupInterval is the shard→fleet push period.
const fleetRollupInterval = 250 * time.Millisecond

// fleetSKUs is the synthetic SKU mix assigned round-robin.
var fleetSKUs = []string{"cam-v1", "plug-v2", "lock-v3", "tv-v4"}

// RunFleet (A10) drives 10³–10⁵ emulated devices through sharded
// local controllers with the telemetry rollup plane attached,
// reporting live device-events/sec and detect→enforce latency at each
// fleet size from the *merged* fleet view — the measurement itself
// exercises the hierarchical rollup transport it reports on.
func RunFleet(o FleetOptions) (*Table, []FleetResult, error) {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{1_000, 10_000, 100_000}
	}
	if o.ShardSize <= 0 {
		o.ShardSize = 64
	}
	if o.Duration <= 0 {
		o.Duration = 2 * time.Second
	}

	t := &Table{
		ID:    "A10",
		Title: fmt.Sprintf("Fleet load: sharded control plane + rollup telemetry (%v/size, shard %d)", o.Duration, o.ShardSize),
		Columns: []string{
			"Devices", "Shards", "Events", "Events/sec",
			"p50", "p95", "p99 (merged)", "p99 (direct)", "Escalated",
		},
	}
	var results []FleetResult
	for _, size := range o.Sizes {
		if size <= 0 {
			return nil, nil, fmt.Errorf("experiment: fleet size %d", size)
		}
		r, err := runFleetSize(size, o)
		if err != nil {
			return nil, nil, err
		}
		results = append(results, r)
		t.AddRow(r.Size, r.Shards, r.Events,
			fmt.Sprintf("%.0f", r.EventsPerSec),
			fmtSeconds(r.P50), fmtSeconds(r.P95), fmtSeconds(r.P99),
			fmtSeconds(r.DirectP99), r.Escalated)
		if o.Progress != nil {
			fmt.Fprintf(o.Progress, "fleet %d: %.0f events/sec, p99 %s (merged) vs %s (direct), %d shards\n",
				r.Size, r.EventsPerSec, fmtSeconds(r.P99), fmtSeconds(r.DirectP99), r.Shards)
		}
	}
	t.Note("latency is detect→enforce (event injection to posture delivery); quantiles from the fleet-merged rollup histogram")
	t.Note("escalated events pay the global controller round trip; everything else resolves in the owning shard")
	return t, results, nil
}

// fmtSeconds renders a latency compactly (µs/ms/s).
func fmtSeconds(s float64) string {
	switch {
	case s <= 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}

// fleetDevIndex parses "dev%06d" → index (-1 when not a fleet device).
func fleetDevIndex(name string) int {
	if len(name) < 4 || name[0] != 'd' || name[1] != 'e' || name[2] != 'v' {
		return -1
	}
	n := 0
	for i := 3; i < len(name); i++ {
		c := name[i]
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func runFleetSize(n int, o FleetOptions) (FleetResult, error) {
	devs := make([]string, n)
	d := policy.NewDomain()
	f := policy.NewFSM(d)
	for i := range devs {
		devs[i] = fmt.Sprintf("dev%06d", i)
		d.AddDevice(devs[i], policy.ContextNormal, policy.ContextSuspicious)
		d.AddEnvVar(devs[i]+"_attr", "a", "b")
		// Self-targeting local rule: the device's posture flips
		// zero↔Block as its own attr alternates, so every committed
		// event yields exactly one posture delivery to measure.
		f.AddRule(policy.Rule{
			Name:       "local-" + devs[i],
			Conditions: []policy.Condition{policy.EnvIs(devs[i]+"_attr", "b")},
			Device:     devs[i],
			Posture:    policy.Posture{BlockCommands: []string{"ON"}},
			Priority:   5,
		})
	}
	// One cross-partition rule keeps the global path honest: backdoor
	// probes on its two referenced devices escalate.
	if n > 1 {
		f.AddRule(policy.Rule{
			Name: "global-cross",
			Conditions: []policy.Condition{
				policy.DeviceIs(devs[0], policy.ContextSuspicious),
				policy.DeviceIs(devs[n-1], policy.ContextSuspicious),
			},
			Device:   devs[0],
			Posture:  policy.Posture{Isolate: true},
			Priority: 9,
		})
	}

	// Star edges inside each block of ShardSize devices → blocks map
	// onto shards.
	edges := make([]controller.InteractionEdge, 0, n)
	for i, dev := range devs {
		if anchor := i - i%o.ShardSize; anchor != i {
			edges = append(edges, controller.InteractionEdge{A: devs[anchor], B: dev, Weight: 1})
		}
	}
	part := controller.Partition(devs, edges, o.ShardSize)
	envLocality := make(map[string]int, n)
	for _, dev := range devs {
		envLocality[dev+"_attr"] = part.GroupOf(dev)
	}

	epoch := time.Now()
	inject := make([]int64, n)
	direct := telemetry.NewStandaloneHistogram(nil)
	// statsByIdx is filled after EnableFleetStats; the sink loads it
	// atomically because reconciles may race the setup window.
	var statsByIdx atomic.Pointer[[]*controller.ShardStats]

	sink := func(_ context.Context, dev string, _ policy.Posture, _ uint64) {
		i := fleetDevIndex(dev)
		if i < 0 || i >= n {
			return
		}
		// Swap-to-zero claims the in-flight timestamp exactly once:
		// bulk first-reconcile posture sweeps (every device starts at
		// the zero posture) find 0 and record nothing.
		ts := atomic.SwapInt64(&inject[i], 0)
		if ts == 0 {
			return
		}
		lat := (time.Since(epoch) - time.Duration(ts)).Seconds()
		if lat < 0 {
			return
		}
		if sp := statsByIdx.Load(); sp != nil {
			if s := (*sp)[i]; s != nil {
				s.ObserveE2E(dev, lat)
			}
		}
		direct.Observe(lat)
	}

	h := controller.NewHierarchy(f, part, envLocality, sink)
	byGroup := h.EnableFleetStats()
	idx := make([]*controller.ShardStats, n)
	skuByShard := make(map[int]map[string]int, len(byGroup))
	for i, dev := range devs {
		g := part.GroupOf(dev)
		idx[i] = byGroup[g]
		m := skuByShard[g]
		if m == nil {
			m = make(map[string]int, len(fleetSKUs))
			skuByShard[g] = m
		}
		m[fleetSKUs[i%len(fleetSKUs)]]++
	}
	for g, counts := range skuByShard {
		byGroup[g].SetSKUDevices(counts)
	}
	statsByIdx.Store(&idx)

	agg := h.Global.Fleet()
	plane := h.StartFleetRollups(agg, fleetRollupInterval)

	// Drive: each worker owns a contiguous device range and flips its
	// devices' attr every round ("b" first so round 0 already commits a
	// posture change). One worker per GOMAXPROCS.
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var stop atomic.Bool
	var totalEvents atomic.Uint64
	vals := [2]string{"b", "a"}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int, probes bool) {
			defer wg.Done()
			ctx := context.Background()
			var events uint64
			for round := 0; !stop.Load(); round++ {
				detail := "attr=" + vals[round&1]
				for i := lo; i < hi; i++ {
					if stop.Load() {
						break
					}
					atomic.StoreInt64(&inject[i], int64(time.Since(epoch)))
					h.HandleDeviceEvent(ctx, device.Event{
						Device: devs[i], Kind: device.EventStateChange, Detail: detail,
					})
					events++
				}
				if probes && round%8 == 0 && n > 1 {
					// Rare security probes on the globally referenced
					// pair exercise the escalation path.
					h.HandleDeviceEvent(ctx, device.Event{Device: devs[0], Kind: device.EventBackdoorAccess, Detail: "probe"})
					h.HandleDeviceEvent(ctx, device.Event{Device: devs[n-1], Kind: device.EventBackdoorAccess, Detail: "probe"})
					events += 2
				}
			}
			totalEvents.Add(events)
		}(lo, hi, w == 0)
	}
	time.Sleep(o.Duration)
	stop.Store(true)
	wg.Wait()
	wall := time.Since(start)
	plane.Stop() // final flush: nothing observed is lost

	merged := agg.MergedMTTR()
	view := agg.View()
	_, escalated := h.Metrics()
	r := FleetResult{
		Size:         n,
		Shards:       h.Locals(),
		Workers:      workers,
		Events:       totalEvents.Load(),
		Escalated:    escalated,
		WallSeconds:  wall.Seconds(),
		EventsPerSec: float64(totalEvents.Load()) / wall.Seconds(),
		P50:          merged.Quantile(0.50),
		P95:          merged.Quantile(0.95),
		P99:          merged.Quantile(0.99),
		DirectP99:    direct.Quantile(0.99),
		MergedCount:  merged.Count,
		DirectCount:  direct.Count(),
		StaleShards:  view.Fleet.StaleShards,
		View:         view,
	}
	if r.Events == 0 {
		return r, fmt.Errorf("experiment: fleet %d drove no events", n)
	}
	return r, nil
}
