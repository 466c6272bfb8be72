package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// activity counts fabric work in flight: frames queued on port
// inboxes and frames currently inside a HandleFrame call. Because
// every frame a handler emits is counted before the handler's own
// frame is released, the counter only reaches zero when the whole
// causal cascade has drained — which is exactly the barrier Quiesce
// needs.
type activity struct {
	n atomic.Int64
}

func (a *activity) add(d int64) { a.n.Add(d) }
func (a *activity) idle() bool  { return a.n.Load() == 0 }

// Tap observes every frame crossing a link.
// Taps must be fast and must not modify the frame.
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
// between their ports.
type Network struct {
	mu      sync.Mutex
	nodes   map[string]Node
	ports   []*Port
	links   []*Link
	started bool
	taps    tapSet
	act     activity
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

// NewPort allocates a port owned by node with the given port ID and
// default queue length. The port starts delivering once Start runs
// (or immediately if the network is already started).
func (n *Network) NewPort(owner Node, id uint16) *Port {
	return n.newPortOpts(owner, id, 0)
}

func (n *Network) newPortOpts(owner Node, id uint16, queueLen int) *Port {
	p := newPort(owner, id, queueLen)
	p.act = &n.act
	n.mu.Lock()
	n.ports = append(n.ports, p)
	started := n.started
	n.mu.Unlock()
	if started {
		go p.run()
	}
	return p
}

// Connect wires two ports. LinkOptions is empty; see its comment.
func (n *Network) Connect(a, b *Port, _ LinkOptions) *Link {
	l := newLink(a, b, &n.taps)
	n.mu.Lock()
	n.links = append(n.links, l)
	n.mu.Unlock()
	return l
}

// AddTap registers a frame observer across all links.
func (n *Network) AddTap(t Tap) {
	n.taps.mu.Lock()
	defer n.taps.mu.Unlock()
	n.taps.taps = append(n.taps.taps, t)
}

// Start begins frame delivery on all ports.
func (n *Network) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return
	}
	n.started = true
	for _, p := range n.ports {
		go p.run()
	}
}

// Stop halts all port delivery goroutines. Frames in flight are
// discarded.
func (n *Network) Stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range n.ports {
		p.close()
	}
	n.started = false
}

// Quiesce blocks until the fabric is idle — no frames queued on port
// inboxes and no handler mid-frame — or the timeout expires, reporting
// whether idleness was reached. It is the explicit drain barrier
// callers use instead of sleeping "long enough" for in-flight traffic:
// because a handler's emissions are counted before its own frame is
// released, Quiesce only returns true once the entire causal cascade
// has drained. Only meaningful while the network is running (after
// Stop, undelivered frames may keep the fabric counted as busy).
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
