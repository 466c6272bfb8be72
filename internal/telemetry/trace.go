package telemetry

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed operation. Spans form trees: StartSpan under a
// context carrying a parent span links the child to it and inherits
// the trace ID and sampling decision. End records the span into the
// store's ring buffer when sampled.
type Span struct {
	store    *SpanStore
	TraceID  uint64
	ID       uint64
	ParentID uint64
	Name     string
	Start    time.Time

	sampled bool

	mu    sync.Mutex
	attrs Labels
	ended bool
}

// FinishedSpan is the immutable record of an ended span.
type FinishedSpan struct {
	TraceID  uint64        `json:"trace_id"`
	ID       uint64        `json:"span_id"`
	ParentID uint64        `json:"parent_id,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    Labels        `json:"attrs,omitempty"`
}

// SpanStore retains the most recent sampled spans in a bounded ring
// buffer. Root-span sampling keeps 1 in SampleEvery traces (1 = all);
// child spans inherit the root's decision so traces stay whole.
type SpanStore struct {
	sampleEvery uint64

	nextTrace atomic.Uint64
	nextSpan  atomic.Uint64
	rootSeen  atomic.Uint64

	started  atomic.Uint64
	finished atomic.Uint64

	// slowNS, when > 0, is the duration threshold (ns) above which an
	// ended span is reported to the slow hook regardless of sampling.
	slowNS   atomic.Int64
	slowHook atomic.Pointer[func(FinishedSpan)]

	mu   sync.Mutex
	ring []FinishedSpan
	pos  int
	full bool
}

// NewSpanStore builds a store retaining up to capacity sampled spans,
// sampling one in sampleEvery root spans (values < 1 mean 1).
func NewSpanStore(capacity int, sampleEvery int) *SpanStore {
	if capacity <= 0 {
		capacity = 1024
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &SpanStore{sampleEvery: uint64(sampleEvery), ring: make([]FinishedSpan, capacity)}
}

type spanKey struct{}

// FromContext returns the active span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan begins a span as a child of any span already carried by
// ctx and returns the derived context carrying the new span. Always
// pair with End.
func (st *SpanStore) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	parent := FromContext(ctx)
	sp := &Span{store: st, Name: name, Start: time.Now(), ID: st.nextSpan.Add(1)}
	if parent != nil {
		sp.TraceID = parent.TraceID
		sp.ParentID = parent.ID
		sp.sampled = parent.sampled
	} else {
		sp.TraceID = st.nextTrace.Add(1)
		sp.sampled = st.rootSeen.Add(1)%st.sampleEvery == 1 || st.sampleEvery == 1
	}
	st.started.Add(1)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartSpan begins a span on the Default registry's store.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return Default.Spans().StartSpan(ctx, name)
}

// TraceID reports the trace ID carried by ctx (0 = no active trace).
// Forensic consumers (the event journal, FLOW_MOD metadata) use this
// to stamp records with the causal chain they belong to.
func TraceID(ctx context.Context) uint64 {
	if s := FromContext(ctx); s != nil {
		return s.TraceID
	}
	return 0
}

// SetSlowThreshold arms slow-span reporting: spans whose duration
// meets or exceeds d invoke fn on End (in addition to normal
// recording, and regardless of the sampling decision). d <= 0 or a
// nil fn disarms. fn must be safe for concurrent use and must not
// block.
func (st *SpanStore) SetSlowThreshold(d time.Duration, fn func(FinishedSpan)) {
	if d <= 0 || fn == nil {
		st.slowNS.Store(0)
		st.slowHook.Store(nil)
		return
	}
	st.slowNS.Store(int64(d))
	st.slowHook.Store(&fn)
}

// SetAttr attaches a key/value attribute to the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Label{Key: key, Value: value})
	s.mu.Unlock()
}

// End finishes the span, recording it when sampled. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()

	s.store.finished.Add(1)
	dur := time.Since(s.Start)
	fs := FinishedSpan{
		TraceID:  s.TraceID,
		ID:       s.ID,
		ParentID: s.ParentID,
		Name:     s.Name,
		Start:    s.Start,
		Duration: dur,
		Attrs:    attrs,
	}
	if slow := s.store.slowNS.Load(); slow > 0 && int64(dur) >= slow {
		if fn := s.store.slowHook.Load(); fn != nil {
			(*fn)(fs)
		}
	}
	if !s.sampled {
		return
	}
	s.store.record(fs)
}

func (st *SpanStore) record(fs FinishedSpan) {
	st.mu.Lock()
	st.ring[st.pos] = fs
	st.pos++
	if st.pos == len(st.ring) {
		st.pos = 0
		st.full = true
	}
	st.mu.Unlock()
}

// Recent returns up to n retained spans, newest first (n <= 0 returns
// all retained).
func (st *SpanStore) Recent(n int) []FinishedSpan {
	st.mu.Lock()
	defer st.mu.Unlock()
	size := st.pos
	if st.full {
		size = len(st.ring)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]FinishedSpan, 0, n)
	for i := 0; i < n; i++ {
		idx := st.pos - 1 - i
		if idx < 0 {
			idx += len(st.ring)
		}
		out = append(out, st.ring[idx])
	}
	return out
}

// Stats reports spans started and finished (sampled or not).
func (st *SpanStore) Stats() (started, finished uint64) {
	return st.started.Load(), st.finished.Load()
}
