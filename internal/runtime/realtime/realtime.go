// Package realtime drives the same protocol layers as the simulator,
// but on goroutines and the wall clock: every member runs an event loop
// goroutine (layers are single-threaded by design, exactly as in the
// discrete-event runtime), and the in-memory network delivers packets
// after real delays. This is the runtime the runnable examples use to
// show the stack working outside the simulator; experiments use the
// deterministic DES runtime instead.
package realtime

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
)

// Config describes the in-memory network.
type Config struct {
	// Nodes is the group size.
	Nodes int
	// PropDelay is the one-way delivery delay.
	PropDelay time.Duration
	// Jitter adds a uniform [0, Jitter) extra delay per packet.
	Jitter time.Duration
	// Seed seeds the per-group random source (jitter, layer RNGs).
	Seed int64
	// Recorder, if set, receives an obs.EvDrop event for every posted
	// event discarded at a full mailbox. Unlike the DES runtime, nodes
	// here run on separate goroutines, so the recorder must be safe for
	// concurrent use (wrap obs.Collector in a lock; the stock recorders
	// are single-threaded).
	Recorder obs.Recorder
}

// mailboxDepth bounds each member's pending-event queue: an event
// posted to a full mailbox is dropped and counted.
const mailboxDepth = 1024

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Group is a set of real-time nodes.
type Group struct {
	cfg   Config
	ring  *ids.Ring
	nodes []*Node
	start time.Time

	mu      sync.Mutex
	stopped bool
	wg      sync.WaitGroup
}

// NewGroup creates and starts n event-loop nodes.
func NewGroup(cfg Config) (*Group, error) {
	cfg = cfg.withDefaults()
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("realtime: need at least one node")
	}
	ring, err := ids.NewRing(ids.Procs(cfg.Nodes))
	if err != nil {
		return nil, err
	}
	g := &Group{cfg: cfg, ring: ring, start: time.Now()}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			group:   g,
			self:    ids.ProcID(i),
			mailbox: make(chan func(), mailboxDepth),
			rng:     rand.New(rand.NewSource(cfg.Seed + int64(i))),
			done:    make(chan struct{}),
		}
		g.nodes = append(g.nodes, n)
		g.wg.Add(1)
		go n.loop(&g.wg)
	}
	return g, nil
}

// Node returns member p.
func (g *Group) Node(p ids.ProcID) *Node { return g.nodes[p] }

// Nodes returns all members.
func (g *Group) Nodes() []*Node {
	out := make([]*Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Stop shuts down every node's event loop and waits for them to exit.
func (g *Group) Stop() {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	g.stopped = true
	g.mu.Unlock()
	for _, n := range g.nodes {
		close(n.done)
	}
	g.wg.Wait()
}

func (g *Group) isStopped() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stopped
}

// Node is one real-time member: a proto.Env whose handlers all run on
// its own event-loop goroutine.
type Node struct {
	group   *Group
	self    ids.ProcID
	mailbox chan func()
	rng     *rand.Rand
	done    chan struct{}

	// dropped counts events discarded at a full mailbox; atomic because
	// post is called from peers' loops and timer goroutines.
	dropped atomic.Uint64

	// recv is the bound packet receiver (the stack's Recv).
	recv func(src ids.ProcID, payload []byte)
}

var _ proto.Env = (*Node)(nil)

// loop runs queued events until the node is stopped.
func (n *Node) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case fn := <-n.mailbox:
			fn()
		case <-n.done:
			return
		}
	}
}

// post enqueues fn on the node's event loop, dropping it if the node
// has stopped or the mailbox is full (overload behaves like loss, which
// the fifo layer repairs). A full-mailbox drop is never silent: it is
// counted in Dropped and reported to the configured recorder.
func (n *Node) post(fn func()) {
	select {
	case n.mailbox <- fn:
	case <-n.done:
	default:
		// Mailbox full: drop, loudly.
		n.dropped.Add(1)
		if r := n.group.cfg.Recorder; r != nil && r.Enabled() {
			r.Record(obs.Drop(n.Now(), n.self, obs.NoPeer, obs.DropMailbox))
		}
	}
}

// Dropped reports how many posted events this node has discarded at a
// full mailbox.
func (n *Node) Dropped() uint64 { return n.dropped.Load() }

// Self implements proto.Env.
func (n *Node) Self() ids.ProcID { return n.self }

// Members implements proto.Env.
func (n *Node) Members() []ids.ProcID { return n.group.ring.Members() }

// Ring implements proto.Env.
func (n *Node) Ring() *ids.Ring { return n.group.ring }

// Now implements proto.Env (wall time since group start).
func (n *Node) Now() time.Duration { return time.Since(n.group.start) }

// Rand implements proto.Env. It is only touched from the node's own
// loop, so no locking is needed.
func (n *Node) Rand() *rand.Rand { return n.rng }

// rtTimer adapts time.Timer to proto.Timer.
type rtTimer struct {
	n  *Node
	fn func()

	mu      sync.Mutex
	t       *time.Timer
	pending bool
	// skip counts expirations that were already running, but had not yet
	// taken mu, when a Stop or Reset superseded them; each one is
	// swallowed instead of posting the callback.
	skip int
}

// Stop implements proto.Timer.
func (t *rtTimer) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.pending {
		return false
	}
	t.cancel()
	return true
}

// cancel retires the pending arm. Caller holds mu.
func (t *rtTimer) cancel() {
	t.pending = false
	if !t.t.Stop() {
		t.skip++
	}
}

// Active implements proto.Timer.
func (t *rtTimer) Active() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pending
}

// Reset implements proto.Timer on the same time.Timer.
func (t *rtTimer) Reset(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pending {
		t.cancel()
	}
	t.pending = true
	t.t.Reset(d)
}

// expire runs on the time.Timer's goroutine when an arm comes due.
func (t *rtTimer) expire() {
	t.mu.Lock()
	if t.skip > 0 {
		t.skip--
		t.mu.Unlock()
		return
	}
	t.pending = false
	t.mu.Unlock()
	t.n.post(t.fn)
}

// After implements proto.Env: the callback is posted to the node's
// event loop, preserving the single-threaded layer discipline.
func (n *Node) After(d time.Duration, fn func()) proto.Timer {
	rt := &rtTimer{n: n, fn: fn, pending: true}
	// Hold mu across the assignment: an arm that expires at once must not
	// reach a callback that Resets before rt.t is set.
	rt.mu.Lock()
	rt.t = time.AfterFunc(d, rt.expire)
	rt.mu.Unlock()
	return rt
}

// Transport returns the node's bottom-of-stack network endpoint.
func (n *Node) Transport() proto.Down {
	return rtTransport{n: n}
}

// Bind routes incoming packets into recv (normally a Stack.Recv or
// Switch.Recv). Must be called before traffic flows.
func (n *Node) Bind(recv func(src ids.ProcID, payload []byte)) {
	n.recv = recv
}

// Run executes fn on the node's event loop and waits for it — the safe
// way for external code (main goroutine, tests) to call into a stack.
func (n *Node) Run(fn func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	n.post(func() {
		defer wg.Done()
		fn()
	})
	wg.Wait()
}

type rtTransport struct {
	n *Node
}

var _ proto.Down = rtTransport{}

func (t rtTransport) delay() time.Duration {
	d := t.n.group.cfg.PropDelay
	if j := t.n.group.cfg.Jitter; j > 0 {
		d += time.Duration(t.n.rng.Int63n(int64(j)))
	}
	return d
}

// deliver schedules a frame at dst after the network delay. frame is the
// transmission's one snapshot of the sender's payload: every receiver is
// handed the same bytes, read-only, exactly as on the simulated network.
func (t rtTransport) deliver(dst *Node, src ids.ProcID, frame []byte) {
	if t.n.group.isStopped() {
		return
	}
	time.AfterFunc(t.delay(), func() {
		dst.post(func() {
			if dst.recv != nil {
				dst.recv(src, frame)
			}
		})
	})
}

// Cast implements proto.Down.
func (t rtTransport) Cast(payload []byte) error {
	frame := bytes.Clone(payload)
	for _, dst := range t.n.group.nodes {
		t.deliver(dst, t.n.self, frame)
	}
	return nil
}

// Send implements proto.Down.
func (t rtTransport) Send(dst ids.ProcID, payload []byte) error {
	if dst < 0 || int(dst) >= len(t.n.group.nodes) {
		return fmt.Errorf("realtime: send to unknown node %v", dst)
	}
	t.deliver(t.n.group.nodes[dst], t.n.self, bytes.Clone(payload))
	return nil
}
