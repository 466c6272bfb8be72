package netsim

import (
	"fmt"
	"math"
	"net"
	"sync/atomic"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/openflow"
	"iotsec/internal/resilience"
	"iotsec/internal/telemetry"
)

// agentBufferCap bounds the degradation ring.
const agentBufferCap = 1024

// AgentOptions configure the supervised southbound channel.
type AgentOptions struct {
	// Backoff parameterizes the reconnect schedule (full jitter,
	// capped; zero fields take resilience defaults).
	Backoff resilience.BackoffOptions
	// Dial overrides the transport dial (fault-injection hook);
	// nil uses net.DialTimeout("tcp", addr, 2s).
	Dial func(addr string) (net.Conn, error)
}

// SwitchAgent connects a Switch to a controller over the southbound
// wire protocol: it sends what a ToController action punts as
// PACKET_IN, applies FLOW_MOD and PACKET_OUT, answers
// FEATURES/ECHO/BARRIER/STATS, and reports expired entries as
// FLOW_REMOVED.
//
// The connection is a resilience.Session: it redials when the session
// drops, the (controller-driven) handshake re-runs, and events buffered
// while disconnected are replayed. There is one degradation path, the
// fail-safe stance §5.1 requires of the enforcement layer: while down,
// the switch keeps serving its installed flow table (quarantine drop
// rules live there, so they always hold locally) and undeliverable
// messages wait in a bounded ring for exactly-once replay.
type SwitchAgent struct {
	sw   *Switch
	opts AgentOptions
	sess *resilience.Session[*openflow.Conn]

	// buffer holds events that could not be sent; replayed on
	// re-handshake.
	buffer *resilience.Ring[openflow.Message]

	replayed atomic.Uint64
}

// ConnectAgent dials the controller at addr, runs the handshake
// passively (the controller drives it) and starts the agent loops.
// The first dial is synchronous — an unreachable controller is
// reported immediately — but the session is supervised from then on:
// later disconnects trigger backoff-paced reconnects with default
// options. Use SuperviseAgent for custom options or a fully
// asynchronous start.
func ConnectAgent(sw *Switch, addr string) (*SwitchAgent, error) {
	a := newAgent(sw, addr, AgentOptions{})
	if err := a.sess.Connect(); err != nil {
		return nil, fmt.Errorf("netsim: agent dial controller: %w", err)
	}
	a.start()
	return a, nil
}

// SuperviseAgent starts a supervised agent without waiting for the
// first dial to succeed: if the controller is down, the supervisor
// keeps retrying on the backoff schedule. It never returns an error;
// inspect Connected to observe session state.
func SuperviseAgent(sw *Switch, addr string, opts AgentOptions) *SwitchAgent {
	a := newAgent(sw, addr, opts)
	a.sess.Start()
	a.start()
	return a
}

// start wires the switch's punt path to the agent and launches the
// expiry loop on the session's lifetime.
func (a *SwitchAgent) start() {
	a.sw.SetPacketInHandler(a.onPacketIn)
	a.sess.Go(a.expiryLoop)
}

func newAgent(sw *Switch, addr string, opts AgentOptions) *SwitchAgent {
	if opts.Dial == nil {
		opts.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 2*time.Second)
		}
	}
	a := &SwitchAgent{
		sw:     sw,
		opts:   opts,
		buffer: resilience.NewRing[openflow.Message](agentBufferCap),
	}
	a.sess = resilience.NewSession(resilience.SessionOptions[*openflow.Conn]{
		Name:    fmt.Sprintf("dpid %d", sw.DatapathID()),
		Backoff: opts.Backoff,
		Dial: func() (*openflow.Conn, error) {
			raw, err := opts.Dial(addr)
			if err != nil {
				return nil, err
			}
			return openflow.NewConn(raw), nil
		},
		Run:       a.serve,
		UpEvent:   journal.TypeSouthUp,
		DownEvent: journal.TypeSouthDown,
		Detail: func() string {
			return fmt.Sprintf("%d events buffered", a.buffer.Len())
		},
		OnStateChange: func(st resilience.State) {
			if st == resilience.Up && a.sess.Sessions() > 1 {
				mAgentReconnects.Inc()
			}
		},
	})
	return a
}

// Connected reports whether a southbound session is currently live.
func (a *SwitchAgent) Connected() bool { return a.sess.State() == resilience.Up }

// Health reports the session for /readyz: degraded while redialing
// (the switch serves its installed table), down once the supervisor
// has given up.
func (a *SwitchAgent) Health() (telemetry.HealthState, string) { return a.sess.Health() }

// Reconnects reports how many times the supervisor re-established the
// session.
func (a *SwitchAgent) Reconnects() uint64 {
	if n := a.sess.Sessions(); n > 1 {
		return n - 1
	}
	return 0
}

// BufferedEvents reports the degradation ring depth.
func (a *SwitchAgent) BufferedEvents() int { return a.buffer.Len() }

// Replayed reports how many buffered events were replayed across all
// reconnects.
func (a *SwitchAgent) Replayed() uint64 { return a.replayed.Load() }

// onPacketIn relays a punted frame to the controller, routing it into
// the degradation path when the session is down. Send errors are no
// longer discarded: a failed send tears the conn down (waking the
// supervisor) and the event enters the buffer.
func (a *SwitchAgent) onPacketIn(inPort uint16, reason uint8, frame Frame) {
	a.deliver(&openflow.PacketIn{
		DatapathID: a.sw.DatapathID(),
		InPort:     inPort,
		Reason:     reason,
		Data:       frame,
	})
}

// deliver sends m on the live session or degrades.
func (a *SwitchAgent) deliver(m openflow.Message) {
	if conn, ok := a.sess.Current(); ok {
		if _, err := conn.Send(m); err == nil {
			return
		}
		// The session is half-dead: close it so the supervisor's
		// Receive unblocks and the reconnect loop engages, then treat
		// this event as disconnected-era.
		mAgentSendErrors.Inc()
		_ = conn.Close()
	}
	a.degrade(m)
}

// degrade buffers one undeliverable event for replay.
func (a *SwitchAgent) degrade(m openflow.Message) {
	if a.buffer.Push(m) {
		// Ring full: the oldest event was evicted to make room.
		mBufferEvictions.Inc()
	} else {
		mReplayDepth.Inc()
	}
}

// replay drains the degradation buffer onto a fresh session. Called
// from serve after the feature handshake completes, so the controller
// has already registered the switch. Events arrive exactly once: the
// ring is drained atomically and unsent remainders are re-buffered
// only if the session dies mid-replay.
func (a *SwitchAgent) replay(conn *openflow.Conn) {
	events := a.buffer.Drain()
	if len(events) == 0 {
		return
	}
	mReplayDepth.Add(-int64(len(events)))
	sent := 0
	for i, m := range events {
		if _, err := conn.Send(m); err != nil {
			// Session died mid-replay: re-buffer the unsent tail (the
			// failed event's delivery is unknown; re-buffering it risks
			// a duplicate, dropping it risks a loss — we re-buffer,
			// preferring at-least-once for security state).
			for _, rest := range events[i:] {
				a.degrade(rest)
			}
			_ = conn.Close()
			break
		}
		sent++
	}
	a.replayed.Add(uint64(sent))
	mAgentReplayed.Add(uint64(sent))
	journal.RecordTrace(0, journal.TypeSouthReplay, journal.Info, "",
		fmt.Sprintf("dpid %d: replayed %d/%d buffered events after re-handshake (%d evicted during outage)",
			a.sw.DatapathID(), sent, len(events), a.buffer.Evicted()))
}

// serve answers controller requests on one session until it drops.
func (a *SwitchAgent) serve(conn *openflow.Conn) error {
	for {
		m, xid, err := conn.Receive()
		if err != nil {
			return err
		}
		switch msg := m.(type) {
		case *openflow.Hello:
			_ = conn.SendWithXID(&openflow.Hello{}, xid)
		case *openflow.FeaturesRequest:
			_ = conn.SendWithXID(&openflow.FeaturesReply{
				DatapathID: a.sw.DatapathID(),
				Ports:      a.sw.PortIDs(),
			}, xid)
			// The feature reply completes the (re-)handshake: the
			// controller now knows this switch, so buffered events from
			// the outage can follow.
			a.replay(conn)
		case *openflow.Echo:
			if !msg.Reply {
				_ = conn.SendWithXID(&openflow.Echo{Reply: true, Payload: msg.Payload}, xid)
			}
		case *openflow.FlowMod:
			a.applyFlowMod(conn, msg, xid)
		case *openflow.PacketOut:
			a.sw.ApplyActions(msg.Actions, msg.InPort, Frame(msg.Data))
		case *openflow.BarrierRequest:
			// Messages are processed in order on this single loop, so
			// everything before the barrier has already been applied.
			_ = conn.SendWithXID(&openflow.BarrierReply{}, xid)
		case *openflow.StatsRequest:
			in, out, miss, flows := a.sw.Stats()
			// Clamp instead of silently truncating a table larger than
			// 2^32 entries (absurd today, but silent wraparound in a
			// security telemetry path is how absurdities hide).
			fc := uint32(math.MaxUint32)
			if flows >= 0 && uint64(flows) < math.MaxUint32 {
				fc = uint32(flows)
			}
			_ = conn.SendWithXID(&openflow.StatsReply{
				DatapathID: a.sw.DatapathID(),
				FlowCount:  fc,
				PacketsIn:  in,
				PacketsOut: out,
				TableMiss:  miss,
			}, xid)
		default:
			_ = conn.SendWithXID(&openflow.ErrorMsg{Code: 1, Text: "unsupported " + m.Type().String()}, xid)
		}
	}
}

func (a *SwitchAgent) applyFlowMod(conn *openflow.Conn, fm *openflow.FlowMod, xid uint32) {
	switch fm.Command {
	case openflow.FlowAdd:
		a.sw.Table().Insert(openflow.FlowEntry{
			Match:       fm.Match,
			Priority:    fm.Priority,
			Actions:     fm.Actions,
			IdleTimeout: fm.IdleTimeout,
			HardTimeout: fm.HardTimeout,
			Cookie:      fm.Cookie,
		})
	case openflow.FlowDelete:
		a.sw.Table().Delete(fm.Match)
	case openflow.FlowDeleteByCookie:
		a.sw.Table().DeleteByCookie(fm.Cookie)
	default:
		// Carry the offending cookie and trace ID so the forensic
		// timeline on the controller side can attribute the rejected
		// mod to the causal chain that emitted it.
		_ = conn.SendWithXID(&openflow.ErrorMsg{
			Code: 2,
			Text: fmt.Sprintf("unknown flow-mod command %d (cookie %#x trace %d)",
				uint8(fm.Command), fm.Cookie, fm.TraceID),
		}, xid)
		return
	}
	// Journal the application on the switch side of the wire; the
	// trace ID rode inside the FLOW_MOD, proving the causal chain
	// crossed the southbound protocol.
	journal.RecordTrace(fm.TraceID, journal.TypeFlowApplied, journal.Debug, "",
		fmt.Sprintf("dpid %d: %s prio %d cookie %#x", a.sw.DatapathID(), fm.Command, fm.Priority, fm.Cookie))
}

// expiryLoop periodically evicts timed-out flows and notifies the
// controller. It runs for the agent's lifetime (across sessions);
// FLOW_REMOVED notifications raised while disconnected enter the
// degradation buffer and are replayed on reconnect.
func (a *SwitchAgent) expiryLoop() {
	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-a.sess.Done():
			return
		case now := <-ticker.C:
			for _, e := range a.sw.ExpireFlows(now) {
				pkts, bytes := e.Stats()
				a.deliver(&openflow.FlowRemoved{
					DatapathID: a.sw.DatapathID(),
					Match:      e.Match,
					Priority:   e.Priority,
					Cookie:     e.Cookie,
					Packets:    pkts,
					Bytes:      bytes,
				})
			}
		}
	}
}

// Stop tears the agent down: the supervisor quits, the session (if
// any) closes, and the loops exit.
func (a *SwitchAgent) Stop() { a.sess.Stop() }

// Wait blocks until the agent's goroutines have exited.
func (a *SwitchAgent) Wait() { a.sess.Wait() }
