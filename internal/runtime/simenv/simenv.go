// Package simenv binds the protocol framework to the discrete-event
// simulator: it provides a proto.Env and a bottom-of-stack transport for
// each member of a simulated group. All experiments and most tests run
// protocol stacks through this runtime because it is deterministic and
// fast; the realtime package drives the same layer code on goroutines.
package simenv

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/simnet"
)

// Group is a simulated set of processes sharing a network.
type Group struct {
	sim     *des.Sim
	net     *simnet.Network
	ring    *ids.Ring
	members []ids.ProcID // ring order, read once: Ring.Members copies
	nodes   []*Node
}

// NewGroup creates n nodes over the given simulator and network. The
// network must have at least n nodes configured.
func NewGroup(sim *des.Sim, net *simnet.Network, n int) (*Group, error) {
	if n <= 0 || n > net.Nodes() {
		return nil, fmt.Errorf("simenv: group size %d exceeds network size %d", n, net.Nodes())
	}
	ring, err := ids.NewRing(ids.Procs(n))
	if err != nil {
		return nil, err
	}
	g := &Group{sim: sim, net: net, ring: ring, members: ring.Members()}
	g.nodes = make([]*Node, n)
	for i := range g.nodes {
		g.nodes[i] = &Node{group: g, self: ids.ProcID(i)}
	}
	return g, nil
}

// Node returns member p's node.
func (g *Group) Node(p ids.ProcID) *Node { return g.nodes[p] }

// Nodes returns all nodes in id order.
func (g *Group) Nodes() []*Node {
	out := make([]*Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Sim returns the underlying simulator.
func (g *Group) Sim() *des.Sim { return g.sim }

// Net returns the underlying network.
func (g *Group) Net() *simnet.Network { return g.net }

// Node is one simulated process: it implements proto.Env and provides
// the process's transport.
type Node struct {
	group *Group
	self  ids.ProcID
}

var _ proto.Env = (*Node)(nil)

// Self implements proto.Env.
func (n *Node) Self() ids.ProcID { return n.self }

// Members implements proto.Env. Every call returns the same slice.
func (n *Node) Members() []ids.ProcID { return n.group.members }

// Ring implements proto.Env.
func (n *Node) Ring() *ids.Ring { return n.group.ring }

// Now implements proto.Env (virtual time).
func (n *Node) Now() time.Duration { return n.group.sim.Now() }

// After implements proto.Env.
func (n *Node) After(d time.Duration, fn func()) proto.Timer {
	return n.group.sim.After(d, fn)
}

// Rand implements proto.Env. All nodes share the simulator's stream;
// handlers run one at a time, so this is race-free and deterministic.
func (n *Node) Rand() *rand.Rand { return n.group.sim.Rand() }

// Transport returns the node's bottom-of-stack Down, backed by the
// simulated network.
func (n *Node) Transport() proto.Down {
	return transport{net: n.group.net, self: n.self}
}

// BindStack routes the node's incoming network packets into the given
// receiver (normally proto.Stack.Recv or a multiplexer's Recv).
func (n *Node) BindStack(recv func(src ids.ProcID, payload []byte)) error {
	return n.group.net.Bind(n.self, simnet.Handler(recv))
}

type transport struct {
	net  *simnet.Network
	self ids.ProcID
}

var _ proto.Down = transport{}

func (t transport) Cast(payload []byte) error {
	return t.net.Multicast(t.self, payload)
}

func (t transport) Send(dst ids.ProcID, payload []byte) error {
	return t.net.Unicast(t.self, dst, payload)
}
