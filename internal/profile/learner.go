package profile

import (
	"math"
	"sync"
	"time"

	"iotsec/internal/learn"
	"iotsec/internal/netsim"
	"iotsec/internal/packet"
)

// Identity binds a device name to its SKU and its registered network
// identity. Enforcement privilege follows this identity — the MAC the
// deployment admitted and the address it registered — never the
// address a frame happens to carry.
type Identity struct {
	Name string
	SKU  string
	MAC  packet.MACAddress
	IP   packet.IPv4Address
}

// Learner buffers frames from the training window and distills them
// into per-SKU profiles. It is fed from a netsim tap (via the Engine)
// and is safe for concurrent use.
type Learner struct {
	mu     sync.Mutex
	frames []netsim.CapturedFrame
	// Limit bounds retained frames (default 65536, oldest dropped).
	Limit int
	// RateHeadroom multiplies the observed peak device rate into the
	// profile envelope (default 4).
	RateHeadroom float64
	// MinRate floors the learned envelope so short quiet windows do
	// not produce hair-trigger rate limits (default 50 frames/s).
	MinRate float64
}

// NewLearner returns an empty learner with default bounds.
func NewLearner() *Learner {
	return &Learner{Limit: 65536, RateHeadroom: 4, MinRate: 50}
}

// Observe records one frame hop. The engine calls this for every tap
// delivery while a training window is open.
func (l *Learner) Observe(srcNode, dstNode string, data netsim.Frame, when time.Time) {
	cp := make(netsim.Frame, len(data))
	copy(cp, data)
	l.mu.Lock()
	l.frames = append(l.frames, netsim.CapturedFrame{
		When: when, SrcNode: srcNode, DstNode: dstNode, Data: cp,
	})
	if l.Limit > 0 && len(l.frames) > l.Limit {
		l.frames = l.frames[len(l.frames)-l.Limit:]
	}
	l.mu.Unlock()
}

// Reset discards the buffered window.
func (l *Learner) Reset() {
	l.mu.Lock()
	l.frames = nil
	l.mu.Unlock()
}

// Distill aggregates the buffered window into one profile per SKU.
// Devices of the same SKU merge (service union, generalized remotes,
// max rate). A device with zero observed flows still contributes an
// empty — deny-everything — profile for its SKU; absence of traffic
// is evidence of a narrow device, not an error.
func (l *Learner) Distill(identities []Identity, version int) map[string]*Profile {
	l.mu.Lock()
	frames := make([]netsim.CapturedFrame, len(l.frames))
	copy(frames, l.frames)
	l.mu.Unlock()

	headroom := l.RateHeadroom
	if headroom <= 0 {
		headroom = 4
	}
	if version <= 0 {
		version = 1
	}

	profiles := make(map[string]*Profile)
	for _, id := range identities {
		obs := learn.ObserveFlows(frames, id.Name, id.IP)
		dev := &Profile{SKU: id.SKU, Version: version, Devices: 1}
		var (
			total       int
			first, last time.Time
		)
		for _, o := range obs {
			svc := Service{Proto: o.Proto, Port: o.Port, Initiated: o.Initiated}
			if o.Initiated {
				svc.Remote = o.Remote.String()
			}
			dev.Services = append(dev.Services, svc)
			total += o.Frames
			if first.IsZero() || o.First.Before(first) {
				first = o.First
			}
			if o.Last.After(last) {
				last = o.Last
			}
		}
		if total > 0 {
			span := last.Sub(first).Seconds()
			if span < 1 {
				span = 1
			}
			rate := math.Ceil(float64(total) / span * headroom)
			if rate < l.MinRate {
				rate = l.MinRate
			}
			dev.MaxRate = rate
		}
		dev.normalize()
		if merged, ok := profiles[id.SKU]; ok {
			_ = merged.Merge(dev)
		} else {
			profiles[id.SKU] = dev
		}
	}
	return profiles
}
