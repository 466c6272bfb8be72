package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// activity counts fabric work in flight: frames in the delivery queue
// and frames currently inside a HandleFrame call. Because every frame
// a handler emits is counted before the handler's own frame is
// released, the counter only reaches zero when the whole causal
// cascade has drained — which is exactly the barrier Quiesce needs.
type activity struct {
	n atomic.Int64
}

func (a *activity) add(d int64) { a.n.Add(d) }
func (a *activity) idle() bool  { return a.n.Load() == 0 }

// Tap observes every frame the network delivers, from the port that
// sent it to the port it reaches, just before the receiver handles it.
// It runs on the goroutine draining the network (see Node.HandleFrame
// for what that allows); a frame dropped before delivery — at a full
// port queue or a stopped network — reaches no tap. Taps must be fast
// and must not modify the frame.
type Tap func(src, dst *Port, frame Frame)

// tapSet fans frames out to registered taps.
type tapSet struct {
	mu   sync.RWMutex
	taps []Tap
}

func (t *tapSet) observe(src, dst *Port, frame Frame) {
	t.mu.RLock()
	taps := t.taps
	t.mu.RUnlock()
	for _, tap := range taps {
		tap(src, dst, frame)
	}
}

// Network is the virtual fabric: a registry of nodes and the links
// between their ports, and the one delivery queue that carries every
// frame sent to them.
type Network struct {
	mu      sync.Mutex
	nodes   map[string]Node
	ports   []*Port
	links   []*Link
	started bool
	stopped bool

	// queue[head:] holds the frames waiting for delivery, oldest first;
	// draining is set while a goroutine runs them (see drain).
	queue    []delivery
	head     int
	draining bool

	taps tapSet
	act  activity
}

// delivery is one queued frame, the port that sent it and the port it
// is for.
type delivery struct {
	from, to *Port
	frame    Frame
}

// NewNetwork returns an empty fabric.
func NewNetwork() *Network {
	return &Network{nodes: make(map[string]Node)}
}

// AddNode registers a node. Node names must be unique.
func (n *Network) AddNode(node Node) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	name := node.NodeName()
	if _, dup := n.nodes[name]; dup {
		return fmt.Errorf("netsim: duplicate node name %q", name)
	}
	n.nodes[name] = node
	return nil
}

// NewPort allocates a port owned by node with the given port ID. Frames
// sent to it wait until Start runs (they are delivered at once if the
// network is already started).
func (n *Network) NewPort(owner Node, id uint16) *Port {
	p := &Port{ID: id, owner: owner, net: n}
	n.mu.Lock()
	n.ports = append(n.ports, p)
	if n.started {
		mPortsOpen.Inc()
	}
	n.mu.Unlock()
	return p
}

// Connect wires two ports. LinkOptions is empty; see its comment.
func (n *Network) Connect(a, b *Port, _ LinkOptions) *Link {
	l := newLink(a, b)
	n.mu.Lock()
	n.links = append(n.links, l)
	n.mu.Unlock()
	return l
}

// AddTap registers a frame observer for every frame the network
// delivers.
func (n *Network) AddTap(t Tap) {
	n.taps.mu.Lock()
	defer n.taps.mu.Unlock()
	n.taps.taps = append(n.taps.taps, t)
}

// Start begins frame delivery: frames sent before it are delivered
// now, on the caller's goroutine. A stopped network stays stopped.
func (n *Network) Start() {
	n.mu.Lock()
	if n.started || n.stopped {
		n.mu.Unlock()
		return
	}
	n.started = true
	mPortsOpen.Add(int64(len(n.ports)))
	drain := n.head < len(n.queue)
	n.draining = drain
	n.mu.Unlock()
	if drain {
		n.drain()
	}
}

// Stop halts delivery for good. Queued frames are discarded, and so is
// every frame sent afterwards.
func (n *Network) Stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return
	}
	if n.started {
		mPortsOpen.Add(-int64(len(n.ports)))
	}
	n.started, n.stopped = false, true
	n.act.add(-int64(len(n.queue) - n.head))
	n.queue, n.head = nil, 0
}

// enqueue queues a frame from port from for port to and, if the
// network is started and nobody is draining it, drains it: on this
// goroutine, or with handoff on a new one.
func (n *Network) enqueue(from, to *Port, frame Frame, handoff bool) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	if to.queued >= portQueueLen {
		n.mu.Unlock()
		to.stats.dropsQueue.Add(1)
		mQueueDrops.Inc()
		return
	}
	to.queued++
	n.act.add(1)
	if n.head > 0 && len(n.queue) == cap(n.queue) {
		// Reuse the delivered prefix rather than grow the slice.
		k := copy(n.queue, n.queue[n.head:])
		clear(n.queue[k:])
		n.queue, n.head = n.queue[:k], 0
	}
	n.queue = append(n.queue, delivery{from: from, to: to, frame: frame})
	if n.draining || !n.started {
		n.mu.Unlock()
		return
	}
	n.draining = true
	n.mu.Unlock()
	if handoff {
		go n.drain()
	} else {
		n.drain()
	}
}

// drain is the trampoline: it delivers queued frames one at a time, in
// queue order, until the queue is empty. The caller has set draining,
// so exactly one goroutine runs it per network; frames the handlers
// send join the queue's tail instead of recursing into their peers.
// Delivery is where a frame is counted and shown to the taps, so a
// frame dropped on the way is in neither, and a tap that waits on the
// control plane (a profile violation quarantining its device) waits on
// the drainer, never on the southbound agent's serve loop.
//
// The frame is handed over, not copied: Send's caller gave the buffer
// up, and every node treats what it receives as read-only, so one
// buffer can cross every hop — and reach every port of a flood —
// without a per-hop copy.
func (n *Network) drain() {
	n.mu.Lock()
	for n.head < len(n.queue) {
		d := n.queue[n.head]
		n.queue[n.head] = delivery{}
		n.head++
		if n.head == len(n.queue) {
			n.queue, n.head = n.queue[:0], 0
		}
		d.to.queued--
		n.mu.Unlock()
		d.to.stats.rxFrames.Add(1)
		d.to.stats.rxBytes.Add(uint64(len(d.frame)))
		mFramesDelivered.Inc()
		mBytesDelivered.Add(uint64(len(d.frame)))
		n.taps.observe(d.from, d.to, d.frame)
		d.to.owner.HandleFrame(d.to, d.frame)
		n.act.add(-1)
		n.mu.Lock()
	}
	n.draining = false
	n.mu.Unlock()
}

// Quiesce blocks until the fabric is idle — no frame queued and no
// handler mid-frame — or the timeout expires, reporting whether
// idleness was reached. It is the explicit drain barrier callers use
// instead of sleeping "long enough" for in-flight traffic: because a
// handler's emissions are counted before its own frame is released,
// Quiesce only returns true once the entire causal cascade has
// drained. A Send on an idle fabric has drained its cascade before it
// returns; Quiesce is for frames another goroutine is still draining
// (or that a blocked handler holds up). Before Start, queued frames
// keep the fabric busy.
func (n *Network) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	wait := 50 * time.Microsecond
	for {
		if n.act.idle() {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
		// Event-free backoff wait (timer channel, not a sleep) so the
		// barrier costs nothing when the fabric drains quickly.
		t := time.NewTimer(wait)
		<-t.C
		if wait < 2*time.Millisecond {
			wait *= 2
		}
	}
}
