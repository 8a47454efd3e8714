// Package ptest provides shared scaffolding for protocol-layer tests:
// it assembles a simulated group in which every member runs the same
// stack and records deliveries, optionally as paper-style traces.
package ptest

import (
	"fmt"
	"time"

	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/runtime/simenv"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// Delivery is one record of an app-level delivery.
type Delivery struct {
	At      time.Duration
	Src     ids.ProcID
	Payload []byte
}

// Member is one process under test.
type Member struct {
	Node      *simenv.Node
	Stack     *proto.Stack
	Delivered []Delivery
}

// Cluster is a simulated group running identical stacks.
type Cluster struct {
	Sim     *des.Sim
	Net     *simnet.Network
	Group   *simenv.Group
	Members []*Member
}

// StackFactory builds the layer list (top first) for one member.
type StackFactory func(env proto.Env) []proto.Layer

// New builds an n-member cluster with the given network config and stack
// factory, seeding the simulator with seed. Every member's application
// records deliveries into Member.Delivered.
func New(seed int64, cfg simnet.Config, n int, factory StackFactory) (*Cluster, error) {
	return NewWithApp(seed, cfg, n, factory, nil)
}

// AppFactory builds the application endpoint for one member. m is the
// member under construction (its Stack field is not yet set); sim is
// the shared simulator for timestamps.
type AppFactory func(m *Member, sim *des.Sim) proto.Up

// NewWithApp is New with a custom application per member. A nil appFor
// installs the default recording application.
func NewWithApp(seed int64, cfg simnet.Config, n int, factory StackFactory, appFor AppFactory) (*Cluster, error) {
	sim := des.New(seed)
	net, err := simnet.New(sim, cfg)
	if err != nil {
		return nil, err
	}
	group, err := simenv.NewGroup(sim, net, n)
	if err != nil {
		return nil, err
	}
	if appFor == nil {
		appFor = func(m *Member, sim *des.Sim) proto.Up {
			return proto.UpFunc(func(src ids.ProcID, payload []byte) {
				buf := make([]byte, len(payload))
				copy(buf, payload)
				m.Delivered = append(m.Delivered, Delivery{At: sim.Now(), Src: src, Payload: buf})
			})
		}
	}
	c := &Cluster{Sim: sim, Net: net, Group: group}
	for _, node := range group.Nodes() {
		m := &Member{Node: node}
		stack, err := proto.Build(node, appFor(m, sim), node.Transport(), factory(node)...)
		if err != nil {
			return nil, fmt.Errorf("ptest: member %v: %w", node.Self(), err)
		}
		m.Stack = stack
		if err := node.BindStack(stack.Recv); err != nil {
			return nil, err
		}
		c.Members = append(c.Members, m)
	}
	return c, nil
}

// Cast multicasts a payload from member p.
func (c *Cluster) Cast(p ids.ProcID, payload []byte) error {
	return c.Members[p].Stack.Cast(payload)
}

// Run drives the simulation until the deadline.
func (c *Cluster) Run(d time.Duration) { c.Sim.RunUntil(d) }

// Stop stops all stacks (cancelling timers so Run can drain).
func (c *Cluster) Stop() {
	for _, m := range c.Members {
		m.Stack.Stop()
	}
}

// Bodies returns the payloads delivered at member p, in order, as
// strings.
func (c *Cluster) Bodies(p ids.ProcID) []string {
	var out []string
	for _, d := range c.Members[p].Delivered {
		out = append(out, string(d.Payload))
	}
	return out
}

// SentMsg records when an application message was cast.
type SentMsg struct {
	At  time.Duration
	Msg proto.AppMsg
}

// TraceTimed reconstructs a paper-style trace from recorded sends and
// deliveries (which must decode as AppMsgs), with Send events
// interleaved at their actual times — required for properties that
// constrain send ordering (Amoeba). Ties are broken with Sends first.
func (c *Cluster) TraceTimed(sent []SentMsg) (trace.Trace, error) {
	type timed struct {
		at     time.Duration
		isSend bool
		ev     trace.Event
	}
	var events []timed
	for _, s := range sent {
		events = append(events, timed{s.At, true, trace.Send(s.Msg.TraceMessage())})
	}
	for _, mem := range c.Members {
		for _, d := range mem.Delivered {
			am, err := proto.DecodeApp(d.Payload)
			if err != nil {
				return nil, fmt.Errorf("ptest: undecodable delivery at %v: %w", mem.Node.Self(), err)
			}
			events = append(events, timed{d.At, false, trace.Deliver(mem.Node.Self(), am.TraceMessage())})
		}
	}
	// Stable insertion sort by (time, sends-first) preserving insertion
	// order among equals.
	less := func(a, b timed) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		return a.isSend && !b.isSend
	}
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && less(events[j], events[j-1]); j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
	tr := make(trace.Trace, 0, len(events))
	for _, e := range events {
		tr = append(tr, e.ev)
	}
	return tr, nil
}
