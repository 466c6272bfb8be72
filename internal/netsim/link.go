package netsim

import (
	"math/rand"
	"sync"
	"time"
)

// LinkOptions configure a virtual wire.
type LinkOptions struct {
	// Latency delays each frame's delivery (store-and-forward).
	Latency time.Duration
	// BandwidthBps caps throughput (bytes/second): each frame takes
	// len/bandwidth to serialize and frames queue behind one another
	// per direction. Zero = infinite.
	BandwidthBps float64
	// LossRate drops frames with this probability in [0,1).
	LossRate float64
	// Seed makes loss deterministic; 0 derives a fixed default.
	Seed int64
}

// Link is a bidirectional wire between two ports.
type Link struct {
	a, b *Port
	opts LinkOptions

	rngMu sync.Mutex
	rng   *rand.Rand

	// per-direction serialization state: when the "wire" frees up.
	bwMu       sync.Mutex
	nextFreeAB time.Time // a → b
	nextFreeBA time.Time // b → a

	taps *tapSet
	act  *activity
}

// newLink wires two ports together. The loss rng is only materialized
// for lossy links: seeding a rand.Source is ~600 words of setup work,
// and topology builds create links by the hundreds.
func newLink(a, b *Port, opts LinkOptions, taps *tapSet, act *activity) *Link {
	l := &Link{a: a, b: b, opts: opts, taps: taps, act: act}
	if opts.LossRate > 0 {
		seed := opts.Seed
		if seed == 0 {
			seed = 0x10c5ec
		}
		l.rng = rand.New(rand.NewSource(seed))
	}
	a.link.Store(l)
	b.link.Store(l)
	return l
}

// lose samples the loss process.
func (l *Link) lose() bool {
	if l.opts.LossRate <= 0 || l.rng == nil {
		return false
	}
	l.rngMu.Lock()
	defer l.rngMu.Unlock()
	return l.rng.Float64() < l.opts.LossRate
}

// deliver moves a frame from src's side to dst's inbox, applying
// loss, serialization (bandwidth) and propagation latency. The frame is
// handed over, not copied: Send's caller gave the buffer up, and every
// node treats what it receives as read-only, so one buffer can cross
// every hop — and reach every port of a flood — without the per-hop
// copy that used to be two thirds of the data plane's garbage.
func (l *Link) deliver(src, dst *Port, frame Frame) {
	if l.taps != nil {
		l.taps.observe(src, dst, frame)
	}
	if l.lose() {
		src.stats.dropsLoss.Add(1)
		mFramesLost.Inc()
		return
	}
	mFramesDelivered.Inc()
	mBytesDelivered.Add(uint64(len(frame)))

	delay := l.opts.Latency
	if l.opts.BandwidthBps > 0 {
		tx := time.Duration(float64(len(frame)) / l.opts.BandwidthBps * float64(time.Second))
		l.bwMu.Lock()
		now := time.Now()
		nextFree := &l.nextFreeAB
		if src == l.b {
			nextFree = &l.nextFreeBA
		}
		start := now
		if nextFree.After(now) {
			start = *nextFree
		}
		done := start.Add(tx)
		*nextFree = done
		l.bwMu.Unlock()
		delay += done.Sub(now)
	}
	if delay > 0 {
		// Count the frame as in flight for the duration of the
		// latency/serialization timer so Network.Quiesce sees it.
		if l.act != nil {
			l.act.add(1)
		}
		time.AfterFunc(delay, func() {
			dst.enqueue(frame)
			if l.act != nil {
				l.act.add(-1)
			}
		})
		return
	}
	dst.enqueue(frame)
}
