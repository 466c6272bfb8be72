package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"iotsec/internal/forensics"
	"iotsec/internal/journal"
	"iotsec/internal/slo"
	"iotsec/internal/telemetry"
)

// outDir holds everything a run leaves behind (trace files, reports,
// the forensics stores); it is relative to the benchmark's own
// directory, which `go run -C bench .` and `go test` both make the
// working directory.
const outDir = "out"

// rollupInterval is the fleet rollup push period every workload runs
// under (production default is 1s; the issue fixes 250ms so a short
// window still sees dozens of flushes).
const rollupInterval = 250 * time.Millisecond

var storeSeq atomic.Uint64

// planes are the production observability consumers attached to every
// run, timed and traced alike, the way iotsecd attaches them: the SLO
// tracker and the forensics capturer both tap the process-wide journal.
type planes struct {
	tracker *slo.Tracker
	store   *forensics.Store
	capt    *forensics.Capturer
	dir     string
}

// openStore opens an incident store in a fresh directory under out/.
func openStore() (*forensics.Store, string, error) {
	dir := filepath.Join(outDir, fmt.Sprintf("forensics-%d-%d", os.Getpid(), storeSeq.Add(1)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	store, err := forensics.OpenStore(dir, forensics.StoreOptions{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return store, dir, nil
}

// attachPlanes starts the tracker and opens the store; the capturer is
// attached by the workload (core.EnableForensics when there is a
// platform, forensics.NewCapturer otherwise) and handed back in.
func attachPlanes() (*planes, error) {
	store, dir, err := openStore()
	if err != nil {
		return nil, fmt.Errorf("forensics store: %w", err)
	}
	return &planes{
		tracker: slo.NewTracker(journal.Default, slo.Options{}),
		store:   store,
		dir:     dir,
	}, nil
}

func (p *planes) close() {
	if p == nil {
		return
	}
	p.tracker.Close()
	if p.capt != nil {
		p.capt.Close()
	}
	_ = p.store.Close() // the store is scratch; its directory goes next
	os.RemoveAll(p.dir)
}

// counterSet is one reading of the process-wide telemetry registry —
// the same numbers /metrics serves — summed per metric family.
type counterSet map[string]float64

func readCounters() counterSet {
	out := counterSet{}
	for _, m := range telemetry.Default.Snapshot(1).Metrics {
		if m.Kind == telemetry.KindHistogram {
			continue
		}
		for _, s := range m.Samples {
			out[m.Name] += s.Value
		}
	}
	return out
}

// since is the growth of one counter between two readings.
func (c counterSet) since(prev counterSet, name string) float64 {
	return c[name] - prev[name]
}

// procStat is one reading of what the whole process has spent.
type procStat struct {
	mallocs    uint64
	gcPauseNS  uint64
	cpu        time.Duration
	goroutines int
}

func readProc() procStat {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procStat{mallocs: ms.Mallocs, gcPauseNS: ms.PauseTotalNs, cpu: cpu, goroutines: runtime.NumGoroutine()}
}

// peakRSSMB is the process's high-water resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
