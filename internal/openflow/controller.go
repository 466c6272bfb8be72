package openflow

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"iotsec/internal/journal"
	"iotsec/internal/resilience"
)

// ErrUnknownDatapath reports a send to a switch that never connected or
// has disconnected.
var ErrUnknownDatapath = errors.New("openflow: unknown datapath")

// SwitchHandler receives asynchronous events from connected switches.
// Implementations must be safe for concurrent calls (one reader
// goroutine per switch).
type SwitchHandler interface {
	// SwitchConnected fires after the feature handshake.
	SwitchConnected(dpid uint64, ports []uint16)
	// SwitchDisconnected fires when a switch connection drops.
	SwitchDisconnected(dpid uint64)
	// HandlePacketIn fires for each punted packet.
	HandlePacketIn(pi *PacketIn)
	// HandleFlowRemoved fires when a switch expires an entry.
	HandleFlowRemoved(fr *FlowRemoved)
}

// ControllerEndpoint is the southbound listener of an SDN controller.
// It accepts switch connections, performs the Hello/Features handshake
// and routes events to the handler.
//
// Sessions are actively probed: a per-session heartbeat loop sends
// ECHO requests on a configurable interval and reaps the session once
// the missed-beat threshold is crossed, so half-dead connections
// (one-way partitions, silently dropped peers) surface as
// SwitchDisconnected instead of lingering forever.
type ControllerEndpoint struct {
	handler SwitchHandler
	logger  *log.Logger

	// Heartbeat configuration; set before Listen.
	hbInterval time.Duration
	hbMisses   int
	clock      resilience.Clock

	mu       sync.RWMutex
	ln       net.Listener
	switches map[uint64]*switchSession
	closed   bool
	wg       sync.WaitGroup
}

type switchSession struct {
	conn  *Conn
	dpid  uint64
	ports []uint16

	// pending counts heartbeat ECHOs sent since the last reply; the
	// read loop zeroes it on every ECHO_REPLY.
	pending atomic.Int32
	// done closes when the session's read loop exits, stopping the
	// heartbeat goroutine.
	done chan struct{}

	barrierMu sync.Mutex
	barriers  map[uint32]chan struct{}
}

// Heartbeat defaults: probe every 5s, reap after 3 unanswered beats.
const (
	DefaultHeartbeatInterval = 5 * time.Second
	DefaultHeartbeatMisses   = 3
)

// NewControllerEndpoint creates an endpoint dispatching to handler.
// logger may be nil to discard diagnostics.
func NewControllerEndpoint(handler SwitchHandler, logger *log.Logger) *ControllerEndpoint {
	if logger == nil {
		logger = log.New(discard{}, "", 0)
	}
	return &ControllerEndpoint{
		handler:    handler,
		logger:     logger,
		hbInterval: DefaultHeartbeatInterval,
		hbMisses:   DefaultHeartbeatMisses,
		clock:      resilience.System,
		switches:   make(map[uint64]*switchSession),
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// SetHeartbeat tunes the liveness probe: an ECHO every interval,
// reaping the session after misses consecutive unanswered beats.
// interval <= 0 disables probing. Call before Listen.
func (c *ControllerEndpoint) SetHeartbeat(interval time.Duration, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hbInterval = interval
	if misses < 1 {
		misses = 1
	}
	c.hbMisses = misses
}

// Listen starts accepting switch connections on addr ("host:port";
// use port 0 for an ephemeral port) and returns the bound address.
// After an Interrupt, Listen may be called again (typically on the
// previously bound address) to resume accepting.
func (c *ControllerEndpoint) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("openflow: listen: %w", err)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = ln.Close()
		return "", errors.New("openflow: endpoint closed")
	}
	c.ln = ln
	c.mu.Unlock()
	c.wg.Add(1)
	go c.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (c *ControllerEndpoint) acceptLoop(ln net.Listener) {
	defer c.wg.Done()
	for {
		raw, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go c.serveSwitch(NewConn(raw))
	}
}

// serveSwitch performs the handshake then pumps events until EOF.
func (c *ControllerEndpoint) serveSwitch(conn *Conn) {
	defer c.wg.Done()
	defer conn.Close()

	if _, err := conn.Send(&Hello{}); err != nil {
		return
	}
	m, _, err := conn.Receive()
	if err != nil || m.Type() != TypeHello {
		c.logger.Printf("openflow: handshake with %v failed: %v", conn.RemoteAddr(), err)
		return
	}
	if _, err := conn.Send(&FeaturesRequest{}); err != nil {
		return
	}
	m, _, err = conn.Receive()
	if err != nil {
		return
	}
	feats, ok := m.(*FeaturesReply)
	if !ok {
		c.logger.Printf("openflow: expected FEATURES_REPLY, got %s", m.Type())
		return
	}

	sess := &switchSession{
		conn:     conn,
		dpid:     feats.DatapathID,
		ports:    feats.Ports,
		done:     make(chan struct{}),
		barriers: make(map[uint32]chan struct{}),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	// A reconnecting switch can race its own half-dead predecessor:
	// replace the registration and kill the stale conn so its reader
	// exits (its deferred cleanup sees it is no longer current and
	// does NOT fire SwitchDisconnected for the live dpid).
	stale := c.switches[sess.dpid]
	c.switches[sess.dpid] = sess
	hbInterval, hbMisses, clock := c.hbInterval, c.hbMisses, c.clock
	c.mu.Unlock()
	if stale != nil {
		_ = stale.conn.Close()
	}
	mSessions.Inc()
	journal.RecordTrace(0, journal.TypeSouthUp, journal.Info, "",
		fmt.Sprintf("controller: switch dpid %d session established (%d ports)", sess.dpid, len(sess.ports)))

	if hbInterval > 0 {
		c.wg.Add(1)
		go c.heartbeat(sess, hbInterval, hbMisses, clock)
	}

	c.handler.SwitchConnected(sess.dpid, sess.ports)
	defer func() {
		close(sess.done)
		c.mu.Lock()
		current := c.switches[sess.dpid] == sess
		if current {
			delete(c.switches, sess.dpid)
		}
		c.mu.Unlock()
		mSessions.Dec()
		if current {
			journal.RecordTrace(0, journal.TypeSouthDown, journal.Warn, "",
				fmt.Sprintf("controller: switch dpid %d session lost", sess.dpid))
			c.handler.SwitchDisconnected(sess.dpid)
		}
	}()

	for {
		m, xid, err := conn.Receive()
		if err != nil {
			return
		}
		switch msg := m.(type) {
		case *PacketIn:
			c.handler.HandlePacketIn(msg)
		case *FlowRemoved:
			c.handler.HandleFlowRemoved(msg)
		case *Echo:
			if msg.Reply {
				// Pong: the peer is alive; reset the missed-beat count.
				sess.pending.Store(0)
			} else {
				_ = conn.SendWithXID(&Echo{Reply: true, Payload: msg.Payload}, xid)
			}
		case *BarrierReply:
			sess.barrierMu.Lock()
			if ch, ok := sess.barriers[xid]; ok {
				close(ch)
				delete(sess.barriers, xid)
			}
			sess.barrierMu.Unlock()
		case *ErrorMsg:
			c.logger.Printf("openflow: switch %d error %d: %s", sess.dpid, msg.Code, msg.Text)
		default:
			c.logger.Printf("openflow: unexpected %s from switch %d", m.Type(), sess.dpid)
		}
	}
}

// heartbeat probes one session with periodic ECHO requests, reaping
// it once the missed-beat threshold is crossed. Closing the conn
// unblocks the session's read loop, which performs the normal
// disconnect path (journal + SwitchDisconnected), so a reaped session
// is indistinguishable from a dropped one downstream.
func (c *ControllerEndpoint) heartbeat(sess *switchSession, interval time.Duration, misses int, clock resilience.Clock) {
	defer c.wg.Done()
	t := clock.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-sess.done:
			return
		case <-t.C():
			outstanding := sess.pending.Load()
			if outstanding > 0 {
				// The previous beat went unanswered.
				mHeartbeatMisses.Inc()
			}
			if int(outstanding) >= misses {
				mSessionsReaped.Inc()
				journal.RecordTrace(0, journal.TypeSouthDown, journal.Warn, "",
					fmt.Sprintf("controller: switch dpid %d reaped after %d missed heartbeats", sess.dpid, outstanding))
				c.logger.Printf("openflow: reaping switch %d after %d missed heartbeats", sess.dpid, outstanding)
				_ = sess.conn.Close()
				return
			}
			sess.pending.Add(1)
			if _, err := sess.conn.Send(&Echo{Payload: []byte("hb")}); err != nil {
				_ = sess.conn.Close()
				return
			}
		}
	}
}

func (c *ControllerEndpoint) session(dpid uint64) (*switchSession, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.switches[dpid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownDatapath, dpid)
	}
	return s, nil
}

// SendFlowMod programs the given switch.
func (c *ControllerEndpoint) SendFlowMod(dpid uint64, fm *FlowMod) error {
	s, err := c.session(dpid)
	if err != nil {
		return err
	}
	_, err = s.conn.Send(fm)
	return err
}

// SendPacketOut injects a packet at the given switch.
func (c *ControllerEndpoint) SendPacketOut(dpid uint64, po *PacketOut) error {
	s, err := c.session(dpid)
	if err != nil {
		return err
	}
	_, err = s.conn.Send(po)
	return err
}

// Barrier sends a barrier and waits (up to timeout) for the switch to
// acknowledge that all preceding messages were processed.
//
// Do not call Barrier from within a SwitchHandler callback: callbacks
// run on the switch's receive goroutine, which must stay free to
// deliver the reply Barrier waits for.
func (c *ControllerEndpoint) Barrier(dpid uint64, timeout time.Duration) error {
	s, err := c.session(dpid)
	if err != nil {
		return err
	}
	// Register the waiter BEFORE sending: the reply can arrive on the
	// reader goroutine before Send even returns.
	ch := make(chan struct{})
	xid := s.conn.NextXID()
	s.barrierMu.Lock()
	s.barriers[xid] = ch
	s.barrierMu.Unlock()
	if err := s.conn.SendWithXID(&BarrierRequest{}, xid); err != nil {
		s.barrierMu.Lock()
		delete(s.barriers, xid)
		s.barrierMu.Unlock()
		return err
	}
	// A stopped timer is released at once; time.After's would stay
	// reachable until it fired, pinning one timer per barrier for the
	// whole timeout.
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-ch:
		return nil
	case <-t.C:
		s.barrierMu.Lock()
		delete(s.barriers, xid)
		s.barrierMu.Unlock()
		return fmt.Errorf("openflow: barrier to switch %d timed out after %v", dpid, timeout)
	}
}

// Switches lists the datapath IDs currently connected.
func (c *ControllerEndpoint) Switches() []uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]uint64, 0, len(c.switches))
	for dpid := range c.switches {
		out = append(out, dpid)
	}
	return out
}

// Interrupt models a controller crash for chaos tests and rolling
// restarts: it drops the listener and every switch connection but
// leaves the endpoint reusable — a subsequent Listen (normally on the
// same address) resumes accepting, and reconnecting switches re-run
// the handshake, triggering the handler's SwitchConnected re-sync
// path (full table + standing quarantine re-push).
func (c *ControllerEndpoint) Interrupt() {
	c.mu.Lock()
	ln := c.ln
	c.ln = nil
	sessions := make([]*switchSession, 0, len(c.switches))
	for _, s := range c.switches {
		sessions = append(sessions, s)
	}
	c.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, s := range sessions {
		_ = s.conn.Close()
	}
}

// Close stops the listener and drops all switch connections, waiting
// for the serving goroutines to exit.
func (c *ControllerEndpoint) Close() error {
	c.mu.Lock()
	c.closed = true
	ln := c.ln
	c.ln = nil
	sessions := make([]*switchSession, 0, len(c.switches))
	for _, s := range c.switches {
		sessions = append(sessions, s)
	}
	c.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, s := range sessions {
		_ = s.conn.Close()
	}
	c.wg.Wait()
	return nil
}
