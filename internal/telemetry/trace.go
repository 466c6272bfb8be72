package telemetry

import (
	"context"
	"sync/atomic"
	"time"
)

// Span is one timed operation of a trace. A span started under a
// context that carries another inherits its trace ID; a root span
// takes the next ID from a process-wide counter. The journal records
// what a trace did, stamped with that ID; the span itself keeps only
// the ID it hands down its context and its duration, which End records
// into iotsec_span_seconds{span=<name>}.
type Span struct {
	traceID uint64
	name    string
	start   time.Time
	ended   atomic.Bool
}

// spanSeconds is one latency series per span name. Names must be
// constants: a name built from input would let whoever sends the input
// create series without bound.
var spanSeconds = NewHistogramVec("iotsec_span_seconds",
	"Duration of each traced operation, by span name.", LatencyBuckets, "span")

// nextTrace hands out root trace IDs (0 means no trace).
var nextTrace atomic.Uint64

type spanKey struct{}

// StartSpan begins a span under any span ctx already carries and
// returns the derived context carrying the new one. Always pair with
// End.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp := &Span{name: name, start: time.Now()}
	if parent, _ := ctx.Value(spanKey{}).(*Span); parent != nil {
		sp.traceID = parent.traceID
	} else {
		sp.traceID = nextTrace.Add(1)
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// TraceID reports the trace ID carried by ctx (0 = no active trace).
// Forensic consumers (the event journal, FLOW_MOD metadata) use this
// to stamp records with the causal chain they belong to.
func TraceID(ctx context.Context) uint64 {
	if ctx == nil {
		return 0
	}
	if s, _ := ctx.Value(spanKey{}).(*Span); s != nil {
		return s.traceID
	}
	return 0
}

// End records the span's duration into its name's series. End is
// idempotent.
func (s *Span) End() {
	if s == nil || s.ended.Swap(true) {
		return
	}
	spanSeconds.With(s.name).Observe(time.Since(s.start).Seconds())
}
