package ids

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// AnomalyKind classifies a behavioral deviation.
type AnomalyKind string

// Anomaly kinds.
const (
	AnomalyRate       AnomalyKind = "rate"       // traffic rate above baseline
	AnomalyNewPeer    AnomalyKind = "new-peer"   // talking to an unseen endpoint
	AnomalyNewPort    AnomalyKind = "new-port"   // using an unseen service port
	AnomalyTransition AnomalyKind = "transition" // improbable command sequence
	AnomalyContext    AnomalyKind = "context"    // action disallowed in current context
	AnomalyProfile    AnomalyKind = "profile"    // traffic outside the enforced SKU profile
)

// Anomaly is one detected deviation from a device's learned profile.
type Anomaly struct {
	Device string
	Kind   AnomalyKind
	Detail string
	Score  float64 // higher = more anomalous
	When   time.Time
}

// Profile is a per-device behavioral baseline learned during a
// training window and enforced afterwards — the paper's "normal
// profile" (§4). It tracks message rate, peer set, port set, and a
// first-order Markov model over management commands.
type Profile struct {
	Device string

	mu       sync.Mutex
	training bool

	// rate baseline
	windowStart time.Time
	windowCount int
	baselineEMA float64 // messages/second, exponential moving average
	rateSamples int

	peers map[string]bool
	ports map[uint16]bool

	// Markov transitions: counts[prev][next]
	lastCmd string
	counts  map[string]map[string]int
	totals  map[string]int

	// RateFactor flags rates above factor×baseline (default 4).
	RateFactor float64
	// MinTransitionProb flags transitions rarer than this (default
	// 0.02) once enough evidence exists.
	MinTransitionProb float64
	// MinEvidence is the per-prev-command observation count before
	// transition anomalies are reported (default 20).
	MinEvidence int
}

// NewProfile creates a profile in training mode.
func NewProfile(deviceName string) *Profile {
	return &Profile{
		Device:            deviceName,
		training:          true,
		peers:             make(map[string]bool),
		ports:             make(map[uint16]bool),
		counts:            make(map[string]map[string]int),
		totals:            make(map[string]int),
		RateFactor:        4,
		MinTransitionProb: 0.02,
		MinEvidence:       20,
	}
}

// EndTraining freezes the baseline; subsequent observations are
// checked instead of learned.
func (p *Profile) EndTraining() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.training = false
	p.closeRateWindowLocked(time.Now())
}

// closeRateWindowLocked folds the current window into the EMA.
func (p *Profile) closeRateWindowLocked(now time.Time) {
	if p.windowStart.IsZero() {
		p.windowStart = now
		return
	}
	elapsed := now.Sub(p.windowStart).Seconds()
	if elapsed <= 0 {
		return
	}
	rate := float64(p.windowCount) / elapsed
	if p.rateSamples == 0 {
		p.baselineEMA = rate
	} else {
		p.baselineEMA = 0.7*p.baselineEMA + 0.3*rate
	}
	p.rateSamples++
	p.windowStart = now
	p.windowCount = 0
}

// ObserveMessage records one management message from peer to the
// device's port and returns any anomalies (empty while training).
func (p *Profile) ObserveMessage(peer string, port uint16, cmd string, now time.Time) []Anomaly {
	p.mu.Lock()
	defer p.mu.Unlock()

	var anomalies []Anomaly
	report := func(kind AnomalyKind, detail string, score float64) {
		mAnomalies.With(string(kind)).Inc()
		anomalies = append(anomalies, Anomaly{
			Device: p.Device, Kind: kind, Detail: detail, Score: score, When: now,
		})
	}

	// Rate: close the window every second.
	if p.windowStart.IsZero() {
		p.windowStart = now
	}
	p.windowCount++
	if now.Sub(p.windowStart) >= time.Second {
		if !p.training && p.rateSamples > 0 {
			elapsed := now.Sub(p.windowStart).Seconds()
			rate := float64(p.windowCount) / elapsed
			if base := math.Max(p.baselineEMA, 0.5); rate > base*p.RateFactor {
				report(AnomalyRate, fmt.Sprintf("rate %.1f/s vs baseline %.1f/s", rate, base), rate/base)
			}
		}
		p.closeRateWindowLocked(now)
	}

	if p.training {
		p.peers[peer] = true
		p.ports[port] = true
		p.learnTransitionLocked(cmd)
		return nil
	}

	if !p.peers[peer] {
		report(AnomalyNewPeer, "unseen peer "+peer, 1)
	}
	if !p.ports[port] {
		report(AnomalyNewPort, fmt.Sprintf("unseen port %d", port), 1)
	}
	if prob, evidence, known := p.transitionProbLocked(cmd); known &&
		evidence >= p.MinEvidence && prob < p.MinTransitionProb {
		report(AnomalyTransition,
			fmt.Sprintf("transition %s->%s p=%.3f", p.lastCmd, cmd, prob), 1-prob)
	}
	p.lastCmd = cmd
	return anomalies
}

// learnTransitionLocked updates the Markov model.
func (p *Profile) learnTransitionLocked(cmd string) {
	if p.lastCmd != "" {
		m := p.counts[p.lastCmd]
		if m == nil {
			m = make(map[string]int)
			p.counts[p.lastCmd] = m
		}
		m[cmd]++
		p.totals[p.lastCmd]++
	}
	p.lastCmd = cmd
}

// transitionProbLocked returns P(cmd | lastCmd) with add-one
// smoothing, the evidence count for lastCmd, and whether lastCmd was
// ever seen as a predecessor.
func (p *Profile) transitionProbLocked(cmd string) (prob float64, evidence int, known bool) {
	if p.lastCmd == "" {
		return 0, 0, false
	}
	total, seen := p.totals[p.lastCmd]
	if !seen {
		return 0, 0, false
	}
	succ := len(p.counts[p.lastCmd]) + 1
	count := p.counts[p.lastCmd][cmd]
	return float64(count+1) / float64(total+succ), total, true
}

// Baseline reports the learned message rate (messages/second).
func (p *Profile) Baseline() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.baselineEMA
}
