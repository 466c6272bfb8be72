package correlate_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"iotsec/internal/correlate"
	"iotsec/internal/forensics"
	"iotsec/internal/journal"
	"iotsec/internal/resilience"
	"iotsec/internal/slo"
	"iotsec/internal/telemetry"
)

// This file pits the correlator-backed slo.Tracker and
// forensics.Capturer against oracle copies of the two planes as they
// were before they shared one correlator: each with its own journal
// tap, its own trace table and its own sweep. The oracles are the
// previous code with two changes that keep the comparison exact: they
// run only on Sync (no loop of their own), so both sides drain and
// sweep at the same points; and every tap is clamped to the test
// journal's ring, so a ring overflow evicts the same events from all
// three taps.
//
// The designed differences are all about where an incident's earlier
// events come from. The oracle capturer copied them out of the journal
// ring when an incident opened, whatever they were and however long
// ago. The correlator has what it parked — a trace from its device
// event on, for the longest observer horizon — and what a chain it
// still holds gathered; a chain no observer holds is dropped. So the
// streams keep to the causal shape real traces have, and to the
// horizons:
//   - a story begins at its root: device events, or the opener itself;
//   - a detection does not recur on a trace after its chain is done
//     (a late repeat is a stage or an alert);
//   - a trace re-opens only from the store: after its first incident
//     sealed with every event of the story in it;
//   - a story stops emitting once its trace is older than the horizon
//     or than half the ring, or once a burst has overflowed the ring.
// A stage whose first occurrence falls past MaxEvents is also read
// differently (the tracker reads the chain's retained head), so the
// long story puts every stage inside it.

const (
	diffRing    = 1024
	diffTimeout = 5 * time.Second // tracker ChainTimeout: the longest horizon
	diffQuiet   = time.Second     // capturer Quiet
	diffMaxAge  = 4 * time.Second // a story retires before the horizon
)

// story is one trace's scripted events, emitted a few per step.
type story struct {
	trace    uint64
	events   []journal.Event
	born     time.Time
	bornSeq  uint64
	notAfter time.Time // the next event waits until then (re-open gap)
	lastEmit time.Time
	gapped   bool // a quiet period passed mid-story: its incident may have sealed early
	retired  bool
}

type differential struct {
	t     *testing.T
	rng   *rand.Rand
	j     *journal.Journal
	clock *resilience.FakeClock

	oldReg, newReg     *telemetry.Registry
	oldTr              *oracleTracker
	oldCap             *oracleCapturer
	oldStore, newStore *forensics.Store
	newTr              *slo.Tracker
	newCap             *forensics.Capturer

	stories   []*story
	nextTrace uint64
}

func newDifferential(t *testing.T, seed int64) *differential {
	d := &differential{
		t:         t,
		rng:       rand.New(rand.NewSource(seed)),
		j:         journal.New(diffRing),
		clock:     resilience.NewFakeClock(time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)),
		oldReg:    telemetry.NewRegistry(),
		newReg:    telemetry.NewRegistry(),
		nextTrace: 1,
	}
	var err error
	if d.oldStore, err = forensics.OpenStore(t.TempDir(), forensics.StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	if d.newStore, err = forensics.OpenStore(t.TempDir(), forensics.StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.oldStore.Close(); d.newStore.Close() })
	d.oldTr = newOracleTracker(d.j, d.oldReg, d.clock, diffTimeout)
	d.oldCap = newOracleCapturer(d.j, d.oldStore, d.clock, diffQuiet)
	d.newTr = slo.NewTracker(d.j, slo.Options{Registry: d.newReg, Clock: d.clock, ChainTimeout: diffTimeout})
	d.newCap = forensics.NewCapturer(d.j, forensics.Options{
		Store: d.newStore, Registry: telemetry.NewRegistry(), Clock: d.clock, Quiet: diffQuiet,
	})
	t.Cleanup(d.newTr.Close)
	t.Cleanup(d.newCap.Close)
	return d
}

func (d *differential) sync() {
	d.oldTr.pass(true)
	d.oldCap.pass(true)
	d.newTr.Sync()
}

func (d *differential) advance(by time.Duration) {
	d.sync()
	d.clock.Advance(by)
	d.sync()
}

func (d *differential) appended() uint64 {
	n, _ := d.j.Stats()
	return n
}

func (d *differential) record(e journal.Event) {
	d.j.RecordTrace(e.TraceID, e.Type, e.Severity, e.Device, e.Detail)
}

func ev(t journal.Type, sev journal.Severity, device string) journal.Event {
	return journal.Event{Type: t, Severity: sev, Device: device, Detail: string(t)}
}

func (d *differential) pick(options ...journal.Type) journal.Type {
	return options[d.rng.Intn(len(options))]
}

func (d *differential) chance(p float64) bool { return d.rng.Float64() < p }

// script writes one story: a device's traffic, optionally escalated to
// a detection (or a stage joining the device event directly) and some
// prefix of its enforcement, or a controller failover, or a
// profile-plane opener; view changes and repeats along the way.
func (d *differential) script() []journal.Event {
	dev := []string{"cam", "plug", "wemo", ""}[d.rng.Intn(4)]
	var out []journal.Event
	for n := d.rng.Intn(3); n > 0; n-- {
		out = append(out, ev(journal.TypeDeviceEvent, journal.Debug, dev))
	}
	switch d.rng.Intn(6) {
	case 0: // benign traffic, perhaps a view change
		if d.chance(0.5) {
			out = append(out, ev(journal.TypeViewChange, journal.Debug, dev))
		}
		return out
	case 1: // controller failover, perhaps cut short
		out = append(out, ev(journal.TypeCtrlFailover, journal.Warn, ""))
		for _, t := range []journal.Type{journal.TypeCtrlRehomed, journal.TypeCtrlRecovered} {
			if d.chance(0.8) {
				out = append(out, ev(t, journal.Info, ""))
			}
		}
		return out
	case 2:
		out = append(out, ev(d.pick(journal.TypeProfileViolation, journal.TypeRogueQuarantine, journal.TypeSLOBurn), journal.Critical, dev))
	case 3: // a stage joins the device event with no detection at all
	default:
		out = append(out, ev(d.pick(journal.TypeAnomaly, journal.TypeAnomaly, journal.TypeAlert), journal.Warn, dev))
	}
	if d.chance(0.5) {
		out = append(out, ev(journal.TypeViewChange, journal.Debug, dev))
	}
	if d.chance(0.9) {
		out = append(out, ev(journal.TypePosture, journal.Warn, dev))
	}
	flow := d.chance(0.6)
	if flow {
		for n := 1 + d.rng.Intn(2); n > 0; n-- {
			out = append(out, ev(journal.TypeFlowMod, journal.Info, "sw"))
		}
		if d.chance(0.8) {
			out = append(out, ev(journal.TypeFlowApplied, journal.Debug, ""))
		}
	}
	if d.chance(0.8) {
		out = append(out, ev(journal.TypeMboxReconfig, journal.Info, "mb-"+dev))
	}
	if d.chance(0.2) { // a late repeat: first occurrence must win
		out = append(out, ev(d.pick(journal.TypePosture, journal.TypeFlowApplied, journal.TypeAlert), journal.Info, dev))
	}
	return out
}

func (d *differential) start(events []journal.Event) *story {
	s := &story{trace: d.nextTrace, born: d.clock.Now(), bornSeq: d.appended()}
	d.nextTrace++
	for _, e := range events {
		e.TraceID = s.trace
		s.events = append(s.events, e)
	}
	d.stories = append(d.stories, s)
	return s
}

// retireAll stops every story in flight (after a ring overflow or a
// jump past the horizon).
func (d *differential) retireAll() {
	for _, s := range d.stories {
		s.retired = true
	}
}

// step emits a few events of the stories in flight, some untraced
// noise, and now and then one of the extremes.
func (d *differential) step() {
	now := d.clock.Now()
	for n := d.rng.Intn(3); n > 0; n-- {
		d.start(d.script())
	}
	for _, s := range d.stories {
		if s.retired {
			continue
		}
		if now.Sub(s.born) > diffMaxAge || d.appended()-s.bornSeq > diffRing/2 {
			s.retired = true
			continue
		}
		if len(s.events) == 0 {
			// Finished: sometimes the trace re-opens after its incident
			// sealed, and the re-seal must extend the stored record.
			if _, sealed := d.oldStore.Get(forensics.IncidentID(s.trace)); sealed && !s.gapped && d.chance(0.1) {
				for _, e := range d.script() {
					e.TraceID = s.trace
					s.events = append(s.events, e)
				}
				s.notAfter = now.Add(diffQuiet + 200*time.Millisecond)
			}
			continue
		}
		if now.Before(s.notAfter) || d.chance(0.3) {
			continue
		}
		if !s.lastEmit.IsZero() && now.Sub(s.lastEmit) >= diffQuiet {
			s.gapped = true
		}
		s.lastEmit = now
		for n := 1 + d.rng.Intn(3); n > 0 && len(s.events) > 0; n-- {
			d.record(s.events[0])
			s.events = s.events[1:]
		}
	}
	live := d.stories[:0]
	for _, s := range d.stories {
		if !s.retired {
			live = append(live, s)
		}
	}
	d.stories = live
	for n := d.rng.Intn(20); n > 0; n-- {
		d.j.RecordTrace(0, journal.TypeDeviceEvent, journal.Debug, "noise", "untraced")
	}
	switch d.rng.Intn(60) {
	case 0: // more openers than the capturer holds open
		for i := 0; i < 140; i++ {
			s := d.start([]journal.Event{ev(journal.TypeAnomaly, journal.Warn, "cam")})
			d.record(s.events[0])
			s.events = nil
		}
	case 1: // one trace longer than a chain retains
		s := d.start([]journal.Event{
			ev(journal.TypeAnomaly, journal.Warn, "cam"),
			ev(journal.TypePosture, journal.Warn, "cam"),
			ev(journal.TypeFlowMod, journal.Info, "sw"),
			ev(journal.TypeFlowApplied, journal.Debug, ""),
		})
		for i := 0; i < correlate.MaxEvents+90; i++ {
			s.events = append(s.events, journal.Event{TraceID: s.trace, Type: d.pick(journal.TypeFlowMod, journal.TypeViewChange), Device: "sw"})
		}
		for _, e := range s.events {
			d.record(e)
		}
		s.events = nil
	case 2: // a burst that overflows the ring and every tap before any drain
		d.sync()
		d.withCorrelatorHeld(func() {
			for i := 0; i < diffRing+100; i++ {
				d.j.RecordTrace(0, journal.TypeDeviceEvent, journal.Debug, "noise", "burst")
			}
		})
		d.retireAll()
	}
	d.sync()
	switch r := d.rng.Intn(100); {
	case r < 3: // past every horizon
		d.retireAll()
		d.advance(diffTimeout + time.Duration(d.rng.Intn(3000))*time.Millisecond)
	case r < 25:
		d.advance(time.Duration(300+d.rng.Intn(1200)) * time.Millisecond)
	default:
		d.advance(time.Duration(d.rng.Intn(300)) * time.Millisecond)
	}
}

// withCorrelatorHeld runs fn while the new side's loop cannot drain,
// so the burst overflows its tap exactly as it does the oracles'.
func (d *differential) withCorrelatorHeld(fn func()) {
	r := correlate.Attach(d.j, d.clock, idle{}, 0, diffTimeout)
	defer r.Detach(idle{}, false)
	r.View(fn)
}

// idle is an observer that wants nothing: attaching it only reaches the
// journal's correlator.
type idle struct{}

func (idle) Opens([]journal.Event, journal.Event) bool            { return false }
func (idle) Fold(*correlate.Chain, journal.Event, int, time.Time) {}
func (idle) Expire(*correlate.Chain, *correlate.Hold)             {}
func (idle) Forget([]journal.Event)                               {}

// TestCorrelatorMatchesSeparatePlanes drives random traced streams
// through the oracles and the correlator-backed planes side by side,
// and checks that they count, time and seal the same chains.
func TestCorrelatorMatchesSeparatePlanes(t *testing.T) {
	var drops, evicted, truncated, reopened uint64
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			d := newDifferential(t, seed)
			for i := 0; i < 250; i++ {
				d.step()
			}
			d.retireAll()
			d.advance(2 * diffTimeout)
			d.oldCap.close()
			d.newCap.Close()
			d.compare()
			drops += d.oldCap.openDrops
			evicted += d.oldTr.sub.Evicted()
			reopened += d.oldCap.reopened
			for _, inc := range incidents(d.oldStore) {
				truncated += uint64(inc.Truncated)
			}
		})
	}
	// The extremes the streams are built to reach, or the comparison
	// above proved less than it claims.
	if drops == 0 || evicted == 0 || truncated == 0 || reopened == 0 {
		t.Errorf("streams missed an extreme: open drops %d, tap evictions %d, truncated events %d, re-opened incidents %d",
			drops, evicted, truncated, reopened)
	}
}

func (d *differential) compare() {
	t := d.t
	t.Helper()
	for _, c := range []struct {
		name   string
		suffix string
		labels map[string]string
	}{
		{"iotsec_mttr_complete_total", "", nil},
		{"iotsec_mttr_unescalated_total", "", nil},
		{"iotsec_mttr_incomplete_total", "", map[string]string{"missing_stage": "posture"}},
		{"iotsec_mttr_incomplete_total", "", map[string]string{"missing_stage": "flow-applied"}},
		{"iotsec_mttr_incomplete_total", "", map[string]string{"missing_stage": "mbox-reconfig"}},
		{"iotsec_mttr_e2e_seconds", "_count", nil},
		{"iotsec_mttr_stage_seconds", "_count", map[string]string{"stage": "posture"}},
		{"iotsec_mttr_stage_seconds", "_count", map[string]string{"stage": "flow-mod"}},
		{"iotsec_mttr_stage_seconds", "_count", map[string]string{"stage": "flow-applied"}},
		{"iotsec_mttr_stage_seconds", "_count", map[string]string{"stage": "mbox-reconfig"}},
	} {
		old, _ := sample(d.oldReg, c.name, c.suffix, c.labels)
		got, _ := sample(d.newReg, c.name, c.suffix, c.labels)
		if old != got {
			t.Errorf("%s%s%v: separate planes %v, correlator %v", c.name, c.suffix, c.labels, old, got)
		}
	}
	complete, _ := sample(d.oldReg, "iotsec_mttr_complete_total", "", nil)
	unescalated, _ := sample(d.oldReg, "iotsec_mttr_unescalated_total", "", nil)
	if complete == 0 || unescalated == 0 {
		t.Errorf("the stream exercised too little: %v complete, %v unescalated", complete, unescalated)
	}
	if old, got := d.oldCap.openDrops, d.newCap.Stats().OpenDrops; old != got {
		t.Errorf("open drops: separate planes %d, correlator %d", old, got)
	}
	if old, got := d.oldTr.sub.Evicted(), d.newCap.Stats().TapEvicted; old != got {
		t.Errorf("tap evictions: separate planes %d, correlator %d", old, got)
	}

	oldInc, newInc := incidents(d.oldStore), incidents(d.newStore)
	if len(oldInc) != len(newInc) {
		t.Errorf("sealed %d incidents with separate planes, %d with the correlator", len(oldInc), len(newInc))
	}
	for id, o := range oldInc {
		n, ok := newInc[id]
		if !ok {
			t.Errorf("%s (%s, %d events) sealed only by the separate planes", id, o.Kind, len(o.Events))
			continue
		}
		if o.Kind != n.Kind || o.Complete != n.Complete || o.Truncated != n.Truncated || !reflect.DeepEqual(seqs(o), seqs(n)) {
			t.Errorf("%s differs:\n separate   %s complete=%v truncated=%d %v\n correlator %s complete=%v truncated=%d %v",
				id, o.Kind, o.Complete, o.Truncated, types(o), n.Kind, n.Complete, n.Truncated, types(n))
		}
	}
}

func incidents(s *forensics.Store) map[string]*forensics.Incident {
	out := map[string]*forensics.Incident{}
	for _, dg := range s.Digests() {
		if inc, ok := s.Get(dg.ID); ok {
			out[dg.ID] = inc
		}
	}
	return out
}

func seqs(inc *forensics.Incident) []uint64 {
	out := make([]uint64, len(inc.Events))
	for i, e := range inc.Events {
		out[i] = e.Seq
	}
	return out
}

func types(inc *forensics.Incident) []string {
	out := make([]string, len(inc.Events))
	for i, e := range inc.Events {
		out[i] = fmt.Sprintf("%d:%s", e.Seq, e.Type)
	}
	return out
}

// sample digs one series out of a registry snapshot.
func sample(reg *telemetry.Registry, metric, suffix string, labels map[string]string) (float64, bool) {
	for _, m := range reg.Snapshot(0).Metrics {
		if m.Name != metric {
			continue
		}
		for _, s := range m.Samples {
			if s.Suffix != suffix {
				continue
			}
			match := true
			for k, want := range labels {
				got := ""
				for _, l := range s.Labels {
					if l.Key == k {
						got = l.Value
					}
				}
				match = match && got == want
			}
			if match {
				return s.Value, true
			}
		}
	}
	return 0, false
}
