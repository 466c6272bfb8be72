package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded by the driver around a call into
// a layer (or between two journal events of one chain). Spans of one
// cycle share its trace and hang off the cycle's root span.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// maxSpans bounds what one recorder keeps (and the trace file's size);
// later spans are counted, not kept.
const maxSpans = 1 << 16

// recorder keeps spans in memory until the run ends. One goroutine owns
// a recorder; fleet workers each get their own, merged at write-out. A
// nil *recorder records nothing, so the untraced window runs the same
// code with the recorder absent.
type recorder struct {
	epoch   time.Time
	spans   []span
	dropped uint64
	trace   uint64
}

func newRecorder(epoch time.Time, traceBase uint64) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, maxSpans), trace: traceBase}
}

// cycle opens a new trace and returns its ID.
func (r *recorder) cycle() uint64 {
	if r == nil {
		return 0
	}
	r.trace++
	return r.trace
}

// add records one finished span under parent (0 = root) and returns its
// ID, or 0 when the recorder is absent or full.
func (r *recorder) add(trace uint64, parent uint32, name string, start, end time.Time) uint32 {
	if r == nil {
		return 0
	}
	if len(r.spans) == cap(r.spans) {
		r.dropped++
		return 0
	}
	id := uint32(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// open starts a span whose end is not known yet (a cycle's root, so
// its children can name it as parent); end closes it.
func (r *recorder) open(trace uint64, name string, start time.Time) uint32 {
	return r.add(trace, 0, name, start, start)
}

func (r *recorder) end(id uint32, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = end.Sub(r.epoch).Nanoseconds()
}

// timed runs fn inside a span. The probe calls use it so every probe
// shows up in the trace next to the cycle it measured.
func (r *recorder) timed(trace uint64, parent uint32, name string, fn func()) {
	start := time.Now()
	fn()
	r.add(trace, parent, name, start, time.Now())
}

type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Dropped  uint64 `json:"spans_dropped"`
	Spans    []span `json:"spans"`
}

// writeTrace merges the recorders into out/trace-<workload>.json.
func writeTrace(dir, workload string, seed int64, recs []*recorder) (string, error) {
	tf := traceFile{Workload: workload, Seed: seed}
	for _, r := range recs {
		if r == nil {
			continue
		}
		// IDs are per recorder (index+1); offset them so the merged file
		// stays unique.
		base := uint32(len(tf.Spans))
		for _, s := range r.spans {
			s.ID += base
			if s.Parent != 0 {
				s.Parent += base
			}
			tf.Spans = append(tf.Spans, s)
		}
		tf.Dropped += r.dropped
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tf); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
