package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"iotsec/internal/core"
	"iotsec/internal/journal"
	"iotsec/internal/policy"
	"iotsec/internal/telemetry"
)

const (
	// leakEvery is how often a cycle also probes the quarantine for
	// leaks; leakFrames is how many frames each probe sends.
	leakEvery  = 16
	leakFrames = 4
)

// quarantine is the whole north-star loop with one frame per incident:
// a single client injects one attack frame at a seeded device and
// waits until that device's quarantine is on the wire and its µmbox
// swapped to deny, then releases it again.
type quarantine struct {
	g   *gateway
	rng *rand.Rand
	// attack[i] is the pre-serialised attack frame for camera i: one
	// TCP segment whose payload carries one crowd signature's marker.
	attack [][]byte
	probe  [][]byte // benign frames for the leak probe
	tap    *journal.Subscription
	rec    *recorder
	// injected counts the attack frames whose quarantine the driver saw
	// complete; base is the registry as set-up left it. The SLO plane
	// must have closed a chain for every one of them.
	injected int
	base     counterSet
}

func (q *quarantine) setup(seed int64) error {
	g, err := buildGateway()
	if err != nil {
		return err
	}
	q.g = g
	q.rng = rand.New(rand.NewSource(seed))
	for _, m := range g.cams {
		marker := g.markers[q.rng.Intn(len(g.markers))]
		frame, err := g.frameTo(m, []byte("GET /cgi-bin/"+marker+" HTTP/1.0\r\n\r\n"))
		if err != nil {
			return err
		}
		q.attack = append(q.attack, frame)
		probe, err := g.frameTo(m, []byte("leak-probe"))
		if err != nil {
			return err
		}
		q.probe = append(q.probe, probe)
	}
	// The completion tap: the client learns its enforcement landed from
	// the journal, the way the SLO tracker does. Present in timed and
	// traced windows alike.
	q.tap = journal.Default.Subscribe(4096)
	q.base = readCounters()
	return nil
}

// chain is the journal's account of one quarantine, as monotonic marks.
type chain struct {
	alert, view, posture, firstMod, lastApplied, reconfig time.Time
	trace                                                 uint64
}

// await blocks on the tap until the named device's mbox-reconfig is
// journaled, folding the events of its trace into c. It never spins:
// the only wait is on the subscription's wake channel.
func (q *quarantine) await(dev string, c *chain) bool {
	mbox := "mb-" + dev
	deadline := time.NewTimer(opTimeout)
	defer deadline.Stop()
	for {
		for _, e := range q.tap.Drain() {
			switch {
			case e.Type == journal.TypeAlert && e.Device == dev && c.trace == 0:
				c.trace, c.alert = e.TraceID, e.Wall
			case c.trace == 0 || e.TraceID != c.trace:
			case e.Type == journal.TypeViewChange:
				c.view = e.Wall
			case e.Type == journal.TypePosture:
				c.posture = e.Wall
			case e.Type == journal.TypeFlowMod && c.firstMod.IsZero():
				c.firstMod = e.Wall
			case e.Type == journal.TypeFlowApplied:
				c.lastApplied = e.Wall
			case e.Type == journal.TypeMboxReconfig && e.Device == mbox:
				c.reconfig = e.Wall
				q.injected++
				return true
			}
		}
		select {
		case <-q.tap.Wait():
		case <-deadline.C:
			return false
		}
	}
}

// enforced checks the outcome the chain claims: the device is in the
// steering app's quarantine set, both drop rules are in the switch
// table, and the µmbox pipeline is the one-element deny chain.
func (q *quarantine) enforced(m *core.Managed) bool {
	elems := m.Instance.Mbox.Pipeline().Elements()
	return q.g.sb.Steering.Isolated(m.Device.Name) && q.g.quarantineEntries() == 2 && len(elems) == 1
}

func (q *quarantine) run(d time.Duration, rec bool) *window {
	w := newWindow()
	g := q.g
	begin := time.Now()
	var r *recorder
	if rec {
		if q.rec == nil {
			q.rec = newRecorder(begin, 0)
		}
		r = q.rec
	}
	w.open()
	deadline := begin.Add(d)
	for n := 1; ; n++ {
		i := q.rng.Intn(len(g.cams))
		m := g.cams[i]
		dev := m.Device.Name
		q.tap.Drain() // the previous release's events are not this cycle's

		var c chain
		start := time.Now()
		g.client.InjectFrame(q.attack[i])
		ok := q.await(dev, &c)
		if time.Now().After(deadline) {
			// Past the window: finish the cycle's release, record nothing.
			q.release(m, nil, 0, 0)
			break
		}
		w.attempted++
		switch {
		case !ok:
			w.fail("%s: no mbox-reconfig journaled within %v of the attack frame (chain so far: %+v)", dev, opTimeout, c)
		case !q.enforced(m):
			ok = false
			w.fail("%s: quarantine journaled but not in force (isolated=%v, %d table entries, pipeline %v)", dev,
				g.sb.Steering.Isolated(dev), g.quarantineEntries(), m.Instance.Mbox.Pipeline().Elements())
		}
		trace := r.cycle()
		root := r.open(trace, "cycle", start)
		if ok {
			at := []time.Time{start, c.alert, c.view, c.posture, c.firstMod, c.lastApplied, c.reconfig}
			marks := make([]int64, len(at))
			for k, t := range at {
				marks[k] = t.Sub(start).Nanoseconds()
			}
			for k, dur := range telescope(marks) {
				w.series[stageNames[k]] = append(w.series[stageNames[k]], float64(dur)/1e3)
				r.add(trace, root, stageNames[k], at[k], at[k+1])
			}
			w.samples = append(w.samples, sample{at: int64(c.reconfig.Sub(begin)), lat: marks[len(marks)-1]})
		}

		if ok && n%leakEvery == 0 {
			w.counts["leaked_frames"] += float64(q.leakProbe(m, i))
			w.counts["leak_probes"]++
		}
		released := q.release(m, r, trace, root)
		r.end(root, time.Now())
		if released < 0 {
			w.fail("%s: release left the quarantine on (isolated=%v, %d table entries, pipeline %v)", dev,
				g.sb.Steering.Isolated(dev), g.quarantineEntries(), m.Instance.Mbox.Pipeline().Elements())
		} else {
			w.series["release_ms"] = append(w.series["release_ms"], released)
		}
	}
	elapsed := time.Since(begin)
	q.settle()
	w.close(elapsed)
	return w
}

// settle gives the SLO plane, which consumes the same journal on its
// own goroutine, up to a second to close the chains the driver has
// already seen complete, and reports how many it has closed since
// set-up and how many tap events it lost.
func (q *quarantine) settle() (closed, evicted float64) {
	for i := 0; ; i++ {
		q.g.pl.tracker.Sync()
		now := readCounters()
		closed = now.since(q.base, "iotsec_mttr_complete_total")
		evicted = now.since(q.base, "iotsec_mttr_tap_dropped_total")
		if closed >= float64(q.injected) || i == 100 {
			return closed, evicted
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// leakProbe sends frames at the quarantined device and counts how many
// got past the switch to its µmbox: the quarantine rule must drop them
// all at the first hop.
func (q *quarantine) leakProbe(m *core.Managed, i int) int {
	net := q.g.p.Network
	net.Quiesce(opTimeout)
	fwd0, drop0 := m.Instance.Mbox.Counters()
	for k := 0; k < leakFrames; k++ {
		q.g.client.InjectFrame(q.probe[i])
	}
	net.Quiesce(opTimeout)
	fwd1, drop1 := m.Instance.Mbox.Counters()
	return int(fwd1 - fwd0 + drop1 - drop0)
}

// release returns the device to normal and reports how long that took
// in ms, or -1 when the quarantine did not come off: SetDeviceContext
// returns once the delete-by-cookie is barrier-acked and the full
// pipeline is rebuilt and swapped in.
func (q *quarantine) release(m *core.Managed, r *recorder, trace uint64, parent uint32) float64 {
	dev := m.Device.Name
	ctx, sp := telemetry.StartSpan(context.Background(), "bench.release")
	start := time.Now()
	q.g.p.Global.View.SetDeviceContext(ctx, dev, policy.ContextNormal, "bench release")
	end := time.Now()
	sp.End()
	r.add(trace, parent, "release", start, end)
	if q.g.sb.Steering.Isolated(dev) || q.g.quarantineEntries() != 0 ||
		len(m.Instance.Mbox.Pipeline().Elements()) < 2 {
		return -1
	}
	return float64(end.Sub(start).Nanoseconds()) / 1e6
}

func (q *quarantine) layers(traced *window, m metrics) {
	for _, name := range stageNames {
		m[name] = traced.seriesMedian(name)
	}
	stages := make([]float64, len(stageNames))
	for k, name := range stageNames {
		stages[k] = m[name]
	}
	m["chain.unexplained_us"] = remainder(traced.p50()*1e3, stages)
	m["controller.posture_deliveries"] = traced.ctr("iotsec_core_posture_applies_total")

	// The data-plane probes run against the table as it stands during an
	// incident: one device quarantined, its two drop rules installed.
	held := q.g.cams[0]
	q.tap.Drain()
	q.g.client.InjectFrame(q.attack[0])
	if q.await(held.Device.Name, &chain{}) {
		q.g.dataPlaneProbes(q.rec, q.attack[0], m)
	}
	q.release(held, nil, 0, 0)
	q.g.wireProbes(q.rec, q.tap, m)
}

func (q *quarantine) verify(windows ...*window) []string {
	var bad []string
	var leaked float64
	for _, w := range windows {
		leaked += w.counts["leaked_frames"]
	}
	if leaked > 0 {
		bad = append(bad, fmt.Sprintf("%v frames leaked past a quarantine", leaked))
	}
	if n := q.g.quarantineEntries(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d quarantine entries still in the switch table after release", n))
	}
	if closed, evicted := q.settle(); evicted == 0 && closed < float64(q.injected) {
		bad = append(bad, fmt.Sprintf("SLO plane closed %v chains, driver saw %d quarantines complete (no tap eviction to explain it)", closed, q.injected))
	}
	return bad
}

func (q *quarantine) recorders() []*recorder { return []*recorder{q.rec} }

func (q *quarantine) close() {
	if q.tap != nil {
		q.tap.Close()
	}
	if q.g != nil {
		q.g.close()
	}
}
