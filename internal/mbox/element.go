// Package mbox implements the µmbox platform of §5.2: micro
// network-security functions built as Click-style element pipelines,
// deployed as bump-in-the-wire nodes on the simulated fabric, with a
// manager that models the rapid instantiation and live
// reconfiguration the paper argues micro-VMs enable.
package mbox

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/packet"
	"iotsec/internal/telemetry"
)

// Direction distinguishes which way a frame is crossing the µmbox.
type Direction int

// Traffic directions relative to the protected device.
const (
	// ToDevice flows from the network toward the protected device.
	ToDevice Direction = iota
	// FromDevice flows from the protected device outward.
	FromDevice
)

// Verdict is an element's decision about a frame.
type Verdict int

// Verdicts.
const (
	// Forward passes the (possibly rewritten) frame to the next
	// element.
	Forward Verdict = iota
	// Drop discards the frame.
	Drop
	// Consumed means the element handled the frame itself (e.g.,
	// responded on behalf of the device); nothing is forwarded.
	Consumed
)

// Context carries one frame through the pipeline. Elements may replace
// Frame (rewrites) — the decoded packet is refreshed between elements
// only if Reparse is set.
type Context struct {
	// Frame is the raw bytes; elements may replace it.
	Frame []byte
	// Packet is the decoded view of Frame on pipeline entry.
	Packet *packet.Packet
	// Dir is the traffic direction.
	Dir Direction
	// Reparse asks the pipeline to re-decode Frame before the next
	// element (set it after rewriting).
	Reparse bool
	// Inject sends an extra frame back out of the ingress side
	// (e.g., a forged rejection toward the client). May be nil in
	// unit tests.
	Inject func(frame []byte)
	// Onward sends an extra frame out of the egress side, past the
	// remaining elements (e.g., a reset toward the device a refused
	// request was headed for). May be nil in unit tests.
	Onward func(frame []byte)
}

// Element is one packet-processing stage.
type Element interface {
	// Name identifies the element for stats and logs.
	Name() string
	// Process inspects (and may rewrite) the frame.
	Process(ctx *Context) Verdict
}

// elementStats counts one element's decisions.
type elementStats struct {
	processed atomic.Uint64
	dropped   atomic.Uint64
	consumed  atomic.Uint64
	panics    atomic.Uint64
}

// ElementStats is a snapshot of an element's counters.
type ElementStats struct {
	Name      string
	Processed uint64
	Dropped   uint64
	Consumed  uint64
	Panics    uint64
}

// stage is one precomputed pipeline step: the element plus its
// per-instance counters and the pre-resolved telemetry vec children.
// Stages are built once per (re)configuration so the per-packet path
// is element dispatch plus straight atomic increments.
type stage struct {
	elem  Element
	stats *elementStats

	mProcessed *telemetry.Counter
	mDropped   *telemetry.Counter
	mConsumed  *telemetry.Counter
	mPanics    *telemetry.Counter
}

// Pipeline is an ordered element chain supporting live reconfiguration:
// the active chain lives behind an atomic pointer, so the forwarding
// path never takes a lock and reconfiguration is a single pointer swap
// (no packet is ever half-processed by a mixed chain).
type Pipeline struct {
	chain atomic.Pointer[[]stage]

	mu    sync.Mutex // guards stats map and chain rebuilds
	stats map[string]*elementStats

	reconfigs  atomic.Uint64
	instrument atomic.Bool
}

// NewPipeline builds a pipeline from the given stages with telemetry
// instrumentation enabled.
func NewPipeline(elements ...Element) *Pipeline {
	p := &Pipeline{stats: make(map[string]*elementStats)}
	p.instrument.Store(true)
	p.mu.Lock()
	p.install(elements)
	p.mu.Unlock()
	return p
}

// Instrument toggles hot-path telemetry (element counters and latency
// sampling). On by default; benchmarks disable it to measure the bare
// pipeline.
func (p *Pipeline) Instrument(on bool) { p.instrument.Store(on) }

func (p *Pipeline) ensureStats(name string) *elementStats {
	if s, ok := p.stats[name]; ok {
		return s
	}
	s := &elementStats{}
	p.stats[name] = s
	return s
}

// install rebuilds and publishes the stage chain. Caller holds p.mu.
func (p *Pipeline) install(elements []Element) {
	chain := make([]stage, len(elements))
	for i, e := range elements {
		name := e.Name()
		chain[i] = stage{
			elem:       e,
			stats:      p.ensureStats(name),
			mProcessed: mElemProcessed.With(name),
			mDropped:   mElemDropped.With(name),
			mConsumed:  mElemConsumed.With(name),
			mPanics:    mElemPanics.With(name),
		}
	}
	p.chain.Store(&chain)
}

// Process runs the frame through the chain.
func (p *Pipeline) Process(ctx *Context) Verdict {
	chain := *p.chain.Load()
	instr := p.instrument.Load()
	var start time.Time
	sampled := false
	// Sampling piggybacks on the first stage's processed counter — a
	// plain load instead of one more contended RMW per packet. Under
	// concurrency several goroutines may observe the same value and
	// all sample; that only nudges the effective rate, which is fine
	// for a latency histogram.
	if instr && len(chain) > 0 && chain[0].stats.processed.Load()%latencySampleEvery == 0 {
		start = time.Now()
		sampled = true
	}
	verdict := Forward
	for i := range chain {
		st := &chain[i]
		if ctx.Reparse {
			ctx.Packet = packet.Decode(ctx.Frame, packet.LayerTypeEthernet)
			ctx.Reparse = false
		}
		v := runStage(st, ctx)
		st.stats.processed.Add(1)
		if instr {
			st.mProcessed.Inc()
		}
		switch v {
		case Drop:
			st.stats.dropped.Add(1)
			if instr {
				st.mDropped.Inc()
			}
		case Consumed:
			st.stats.consumed.Add(1)
			if instr {
				st.mConsumed.Inc()
			}
		}
		if v != Forward {
			verdict = v
			break
		}
	}
	if sampled {
		mPipelineSeconds.Observe(time.Since(start).Seconds())
	}
	return verdict
}

// runStage executes one element with fault containment: a panic in
// an element is recovered, counted (per element), journaled, and
// converted into a Drop — a broken security function must never let
// the frame through uninspected, nor unwind the gateway's forwarding
// goroutine.
func runStage(st *stage, ctx *Context) (v Verdict) {
	defer func() {
		if r := recover(); r != nil {
			st.stats.panics.Add(1)
			st.mPanics.Inc()
			journal.RecordTrace(0, journal.TypeMboxPanic, journal.Critical, "",
				fmt.Sprintf("element %s panicked: %v (fail-closed applied)", st.elem.Name(), r))
			v = Drop
		}
	}()
	return st.elem.Process(ctx)
}

// Elements lists the current stage names in order.
func (p *Pipeline) Elements() []string {
	chain := *p.chain.Load()
	out := make([]string, len(chain))
	for i := range chain {
		out[i] = chain[i].elem.Name()
	}
	return out
}

// Replace atomically installs a new element chain (live
// reconfiguration: no packet is ever half-processed by a mixed chain).
func (p *Pipeline) Replace(elements ...Element) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.install(elements)
	p.reconfigs.Add(1)
}

// Insert adds an element at position i (clamped).
func (p *Pipeline) Insert(i int, e Element) {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := *p.chain.Load()
	if i < 0 {
		i = 0
	}
	if i > len(old) {
		i = len(old)
	}
	elements := make([]Element, 0, len(old)+1)
	for _, st := range old[:i] {
		elements = append(elements, st.elem)
	}
	elements = append(elements, e)
	for _, st := range old[i:] {
		elements = append(elements, st.elem)
	}
	p.install(elements)
	p.reconfigs.Add(1)
}

// Remove deletes the first element with the given name, reporting
// whether one was found.
func (p *Pipeline) Remove(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := *p.chain.Load()
	for i := range old {
		if old[i].elem.Name() == name {
			elements := make([]Element, 0, len(old)-1)
			for j := range old {
				if j != i {
					elements = append(elements, old[j].elem)
				}
			}
			p.install(elements)
			p.reconfigs.Add(1)
			return true
		}
	}
	return false
}

// Reconfigs counts live reconfigurations.
func (p *Pipeline) Reconfigs() uint64 { return p.reconfigs.Load() }

// Stats snapshots all element counters.
func (p *Pipeline) Stats() []ElementStats {
	chain := *p.chain.Load()
	out := make([]ElementStats, 0, len(chain))
	for i := range chain {
		s := chain[i].stats
		out = append(out, ElementStats{
			Name:      chain[i].elem.Name(),
			Processed: s.processed.Load(),
			Dropped:   s.dropped.Load(),
			Consumed:  s.consumed.Load(),
			Panics:    s.panics.Load(),
		})
	}
	return out
}
