package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"iotsec/internal/device"
	"iotsec/internal/forensics"
	"iotsec/internal/ids"
	"iotsec/internal/journal"
	"iotsec/internal/mbox"
	"iotsec/internal/netsim"
	"iotsec/internal/openflow"
	"iotsec/internal/packet"
	"iotsec/internal/policy"
	"iotsec/internal/profile"
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// perCall runs fn n times on this goroutine and returns the mean cost
// per call in ns and the process-wide allocations per call (the planes
// keep running, so a shared-nothing layer reads a fraction above its
// own count).
func perCall(n int, fn func()) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(took.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// medianOf runs fn n times and returns the median duration in µs.
func medianOf(n int, fn func()) float64 {
	us := make([]float64, n)
	for i := range us {
		start := time.Now()
		fn()
		us[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	return median(us)
}

// layerMetrics assembles every per-layer metric for one run: the ones
// every workload shares (planes, process, journal) measured here, the
// rest by the workload's own probes. Names a workload does not own
// stay 0.
func layerMetrics(wl workload, timed, traced *window) metrics {
	m := metrics{}
	for _, s := range perLayer {
		m[s.Name] = 0
	}
	rec := firstRecorder(wl)
	probeTrace := rec.cycle()
	probeRoot := rec.open(probeTrace, "probes", time.Now())

	var attempted, failed int
	for _, w := range []*window{timed, traced} {
		attempted += w.attempted
		failed += w.failed
		m["leaked_frames"] += w.counts["leaked_frames"]
	}
	if attempted > 0 {
		m["failed_share"] = 100 * float64(failed) / float64(attempted)
	}
	m["release_p50_ms"] = timed.seriesMedian("release_ms")

	// Counters of the traced window, as the registry /metrics serves.
	m["journal.appended"] = traced.ctr("iotsec_journal_events_total")
	m["journal.tail_drops"] = traced.ctr("iotsec_journal_tail_drops_total")
	m["slo.chains_complete"] = traced.ctr("iotsec_mttr_complete_total")
	m["slo.chains_incomplete"] = traced.ctr("iotsec_mttr_incomplete_total")
	m["slo.tap_evicted"] = traced.ctr("iotsec_mttr_tap_dropped_total")
	m["forensics.incidents_sealed"] = traced.ctr("iotsec_forensics_incidents_total")
	m["forensics.dropped"] = traced.ctr("iotsec_forensics_open_drops_total") + traced.ctr("iotsec_forensics_tap_evicted_total")
	m["netsim.queue_drops"] = traced.ctr("iotsec_netsim_queue_drops_total")
	m["mbox.forwarded"] = traced.ctr("iotsec_mbox_frames_forwarded_total")
	m["mbox.dropped"] = traced.ctr("iotsec_mbox_frames_dropped_total")
	m["mbox.alerts"] = traced.ctr("iotsec_ids_rule_matches_total")
	if in := traced.ctr("iotsec_netsim_switch_packets_in_total"); in > 0 {
		m["netsim.flood_fanout"] = traced.ctr("iotsec_netsim_switch_packets_out_total") / in
	}

	if ops := float64(traced.attempted); ops > 0 {
		m["process.allocs_per_op"] = float64(traced.procEnd.mallocs-traced.procStart.mallocs) / ops
		m["process.cpu_us_per_op"] = float64((traced.procEnd.cpu - traced.procStart.cpu).Microseconds()) / ops
	}
	m["process.gc_pause_ms"] = float64(traced.procEnd.gcPauseNS-traced.procStart.gcPauseNS) / 1e6
	m["process.goroutines"] = float64(traced.procEnd.goroutines)

	// Tracing overhead: the same built system, traced against untraced.
	// Latency workloads compare medians, the fleet pair compares rates.
	if _, isFleet := wl.(*fleet); isFleet {
		if base := timed.rate(); base > 0 {
			m["trace.overhead_pct"] = 100 * (base - traced.rate()) / base
		}
	} else if base := timed.p50(); base > 0 {
		m["trace.overhead_pct"] = 100 * (traced.p50() - base) / base
	}

	wl.layers(traced, m)

	// These two load the journal and the disk, so they go last.
	rec.timed(probeTrace, probeRoot, "journal.append", func() {
		m["journal.append_ns"], _ = perCall(100_000, func() {
			journal.Record(context.Background(), journal.TypeDeviceEvent, journal.Debug, "bench-probe", "append probe")
		})
	})
	rec.timed(probeTrace, probeRoot, "forensics.seal", func() { m["forensics.seal_us"] = probeSeal() })
	rec.end(probeRoot, time.Now())
	return m
}

func firstRecorder(wl workload) *recorder {
	for _, r := range wl.recorders() {
		if r != nil {
			return r
		}
	}
	return nil
}

// probeSeal times persisting one sealed incident (a full quarantine
// chain's worth of events) to a scratch store — the capturer's seal
// cost, which runs off the hot path.
func probeSeal() float64 {
	store, dir, err := openStore()
	if err != nil {
		return 0
	}
	defer func() {
		_ = store.Close()
		os.RemoveAll(dir)
	}()
	now := time.Now()
	events := make([]journal.Event, 8)
	for i := range events {
		events[i] = journal.Event{Seq: uint64(i + 1), TraceID: 1, Wall: now, Type: journal.TypeFlowMod, Device: "cam00", Detail: "add prio 400 cookie 0x51021c0a00010a to dpid 1"}
	}
	n := 0
	return medianOf(200, func() {
		n++
		trace := uint64(n)
		_ = store.Put(&forensics.Incident{
			ID: forensics.IncidentID(trace), TraceID: trace, Kind: forensics.KindAnomaly,
			Device: "cam00", Shard: "bench", OpenedAt: now, ClosedAt: now, Complete: true, Events: events,
		})
	})
}

// probeShardLookup times policy.FSM.Lookup over an FSM the size and
// shape of one fleet shard's: n devices, one self-targeting rule each.
func probeShardLookup(n int) float64 {
	d := policy.NewDomain()
	fsm := policy.NewFSM(d)
	state := policy.NewState()
	for i := 0; i < n; i++ {
		dev := fmt.Sprintf("dev%06d", i)
		d.AddDevice(dev, policy.ContextNormal, policy.ContextSuspicious)
		d.AddEnvVar(dev+"_attr", "a", "b")
		fsm.AddRule(policy.Rule{
			Name:       "local-" + dev,
			Conditions: []policy.Condition{policy.EnvIs(dev+"_attr", "b")},
			Device:     dev,
			Posture:    policy.Posture{BlockCommands: []string{"ON"}},
			Priority:   5,
		})
		state.Env[dev+"_attr"] = "a"
	}
	ns, _ := perCall(2000, func() { sink = fsm.Lookup(state) })
	return ns
}

// dataPlaneProbes times each data-plane layer on one of the workload's
// own frames, against the live switch table and a live µmbox pipeline
// where the layer can be reached from outside, and a standalone
// instance built from the same inputs where it cannot.
func (g *gateway) dataPlaneProbes(rec *recorder, frame []byte, m metrics) {
	trace := rec.cycle()
	root := rec.open(trace, "data-plane probes", time.Now())
	defer func() { rec.end(root, time.Now()) }()
	const n = 200_000

	dec := packet.NewDecoder()
	rec.timed(trace, root, "packet.decode", func() {
		m["packet.decode_ns"], m["packet.decode_allocs"] = perCall(n, func() {
			sink = dec.Decode(frame, packet.LayerTypeEthernet)
		})
	})

	table := g.p.Switch.Table()
	pkt := dec.Decode(frame, packet.LayerTypeEthernet)
	m["openflow.table_entries"] = float64(table.Len())
	rec.timed(trace, root, "openflow.lookup", func() {
		m["openflow.lookup_ns"], _ = perCall(n, func() { sink, _ = table.Lookup(pkt, 1, len(frame)) })
	})

	// The live engines sit behind each pipeline's ids element; the same
	// rules compiled standalone match the same way.
	engine := ids.NewEngine(g.parsedRules())
	m["ids.rules"] = float64(engine.RuleCount())
	rec.timed(trace, root, "ids.match", func() {
		m["ids.match_ns"], _ = perCall(n, func() { sink = engine.Match(pkt) })
	})

	// A benign management request through a live, unquarantined
	// pipeline (ids, password proxy, stateful firewall, logger). The
	// frame must not match a signature: the live ids element's alert
	// callback would quarantine the device.
	benign, err := g.frameTo(g.cams[1], device.Request{Cmd: "STATUS", User: adminUser, Pass: adminPass}.Encode())
	if err == nil {
		pipe := g.cams[1].Instance.Mbox.Pipeline()
		rec.timed(trace, root, "mbox.pipeline", func() {
			m["mbox.pipeline_ns"], m["mbox.pipeline_allocs"] = perCall(n/4, func() {
				sink = pipe.Process(&mbox.Context{
					Frame:  benign,
					Packet: dec.Decode(benign, packet.LayerTypeEthernet),
					Dir:    mbox.ToDevice,
				})
			})
		})
	}

	state := g.p.Global.View.State()
	rec.timed(trace, root, "policy.lookup", func() {
		m["policy.lookup_ns"], _ = perCall(20_000, func() { sink = g.fsm.Lookup(state) })
	})
	rec.timed(trace, root, "profile.observe", func() { m["profile.observe_ns"] = probeProfileObserve(g, n) })
	rec.timed(trace, root, "netsim.hop", func() { m["netsim.hop_us"] = probeHop(frame) })
}

// probeProfileObserve times the behaviour-profile engine on a
// conforming device-originated frame. Profile enforcement is in no
// workload (its rate envelope would quarantine the load generator), so
// this probe is the only place the layer is measured.
func probeProfileObserve(g *gateway, n int) float64 {
	cam := g.cams[0].Device
	eng := profile.NewEngine(profile.Options{})
	eng.Register(profile.Identity{Name: cam.Name, SKU: cam.Profile.SKU, MAC: cam.MAC(), IP: cam.IP()})
	if _, ok := eng.AcceptProfile(&profile.Profile{
		SKU: cam.Profile.SKU, Version: 1,
		Services: []profile.Service{{Proto: "tcp", Port: device.MgmtPort}},
	}); !ok {
		return 0
	}
	if _, _, err := eng.Enforce(cam.Name); err != nil {
		return 0
	}
	reply, err := tcpFrame(cam.MAC(), g.client.MAC(), cam.IP(), g.client.IP(), device.MgmtPort, 40000, []byte("IOT/1 OK recording=on"))
	if err != nil {
		return 0
	}
	ns, _ := perCall(n, func() { eng.Observe(cam.Name, "mb-"+cam.Name, reply) })
	if len(eng.Violations()) != 0 {
		return 0 // the frame was meant to conform; a violation path is a different cost
	}
	return ns
}

// hopNode is a fabric node that reports each frame it is handed.
type hopNode struct {
	name string
	got  chan struct{}
}

func (h *hopNode) NodeName() string { return h.name }
func (h *hopNode) HandleFrame(*netsim.Port, netsim.Frame) {
	h.got <- struct{}{}
}

// probeHop times one fabric hop, Port.Send to the peer's HandleFrame,
// one frame at a time on a two-node fabric of its own.
func probeHop(frame []byte) float64 {
	n := netsim.NewNetwork()
	// got is buffered for the one frame in flight, so the port goroutine
	// never blocks on the reader.
	a := &hopNode{name: "hop-a", got: make(chan struct{}, 1)}
	b := &hopNode{name: "hop-b", got: make(chan struct{}, 1)}
	pa, pb := n.NewPort(a, 1), n.NewPort(b, 1)
	n.Connect(pa, pb, netsim.LinkOptions{})
	n.Start()
	defer n.Stop()
	return medianOf(20_000, func() {
		pa.Send(frame)
		<-b.got
	})
}

// wireProbes times the southbound and swap layers directly, over the
// live session: a quarantine's FLOW_MODs and its release (each with
// their BARRIER), the FLOW_MOD codec, a live pipeline swap, an engine
// build over the crowd rules, and — from the journal — what core spends
// restoring a released device.
func (g *gateway) wireProbes(rec *recorder, tap *journal.Subscription, m metrics) {
	trace := rec.cycle()
	root := rec.open(trace, "wire probes", time.Now())
	defer func() { rec.end(root, time.Now()) }()
	ctx := context.Background()

	// A MAC no device owns, so the probe quarantines nothing real.
	mac := packet.MACAddress{0x02, 0xbe, 0, 0, 0, 1}
	var iso, rel []float64
	rec.timed(trace, root, "controller.isolate+release", func() {
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			g.sb.Steering.Isolate(ctx, "bench-probe", mac)
			t1 := time.Now()
			g.sb.Steering.Release(ctx, "bench-probe", mac)
			t2 := time.Now()
			iso = append(iso, float64(t1.Sub(t0).Nanoseconds())/1e3)
			rel = append(rel, float64(t2.Sub(t1).Nanoseconds())/1e3)
		}
	})
	m["controller.isolate_us"], m["controller.release_us"] = median(iso), median(rel)

	rec.timed(trace, root, "openflow.flowmod_codec", func() { m["openflow.flowmod_codec_ns"] = probeFlowModCodec(mac) })

	rec.timed(trace, root, "mbox.reconfigure", func() {
		name := "mb-bench-probe"
		if _, err := g.p.Manager.Launch(ctx, name, mbox.PlatformProcess, mbox.NewPipeline(&mbox.Logger{})); err != nil {
			return
		}
		defer func() { _ = g.p.Manager.Terminate(name) }() // the probe instance is ours alone
		m["mbox.reconfigure_us"] = medianOf(1000, func() {
			_ = g.p.Manager.Reconfigure(ctx, name, mbox.NewHeaderFilter(mbox.Deny))
		})
	})

	rules := g.parsedRules()
	rec.timed(trace, root, "ids.engine_build", func() {
		m["ids.engine_build_us"] = medianOf(20, func() { sink = ids.NewEngine(rules) })
	})

	// core.restore_us: posture → mbox-reconfig on release traces, i.e.
	// all of core.applyPosture for a release (delete-by-cookie, BARRIER,
	// pipeline rebuild, swap).
	rec.timed(trace, root, "core.restore", func() { m["core.restore_us"] = g.probeRestore(tap) })
}

// probeRestore quarantines and releases one device a few times and
// reads the release's posture → mbox-reconfig interval off the journal.
func (g *gateway) probeRestore(tap *journal.Subscription) float64 {
	m := g.cams[2]
	dev := m.Device.Name
	var us []float64
	for i := 0; i < 50; i++ {
		g.p.Global.View.SetDeviceContext(context.Background(), dev, policy.ContextSuspicious, "bench restore probe")
		tap.Drain()
		g.p.Global.View.SetDeviceContext(context.Background(), dev, policy.ContextNormal, "bench restore probe")
		var posture time.Time
		for _, e := range tap.Drain() {
			switch {
			case e.Type == journal.TypePosture && e.Device == dev:
				posture = e.Wall
			case e.Type == journal.TypeMboxReconfig && e.Device == "mb-"+dev && !posture.IsZero():
				us = append(us, float64(e.Wall.Sub(posture).Nanoseconds())/1e3)
			}
		}
	}
	return median(us)
}

// loopConn is a net.Conn that reads what was written to it; it carries
// an encoded FLOW_MOD back into openflow.Conn.Receive with no socket.
type loopConn struct {
	net.Conn // nil: only Read and Write are ever called
	buf      bytes.Buffer
}

func (c *loopConn) Read(p []byte) (int, error)  { return c.buf.Read(p) }
func (c *loopConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// probeFlowModCodec times one quarantine FLOW_MOD through Encode and
// back through the framed decoder.
func probeFlowModCodec(mac packet.MACAddress) float64 {
	fm := &openflow.FlowMod{
		Command: openflow.FlowAdd, Match: openflow.MatchAll().WithEthSrc(mac),
		Priority: 400, Cookie: uint64(quarantineCookieTag) << 48, TraceID: 42,
	}
	lc := &loopConn{}
	conn := openflow.NewConn(lc)
	ns, _ := perCall(100_000, func() {
		if err := conn.SendWithXID(fm, 7); err != nil {
			return
		}
		sink, _, _ = conn.Receive()
	})
	return ns
}
