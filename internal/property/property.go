// Package property implements Table 1 of the paper: communication
// properties as executable predicates on event traces (§3 — "a property
// is a predicate on traces, dividing all traces into two categories").
//
// Each property may carry parameters (the trusted set, the master
// process, the initial view); the predicates are pure functions of the
// trace, so they can be applied to recorded executions (cmd/tracecheck,
// the switching integration tests) and to every trace the meta-property
// enumerator builds (package metaprop, Table 2).
package property

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/trace"
)

// Property is a named predicate on traces.
type Property interface {
	// Name returns the property's Table 1 name.
	Name() string
	// Holds reports whether the trace satisfies the property.
	Holds(tr trace.Trace) bool
}

// Reliability: "every message that is sent is delivered to all
// receivers". Group parameterizes who the receivers are.
type Reliability struct {
	Group []ids.ProcID
}

var _ Property = Reliability{}

// Name implements Property.
func (Reliability) Name() string { return "Reliability" }

// Holds implements Property.
func (r Reliability) Holds(tr trace.Trace) bool {
	type pm struct {
		p ids.ProcID
		m ids.MsgID
	}
	delivered := make(map[pm]bool)
	for _, e := range tr {
		if e.Kind == trace.DeliverKind {
			delivered[pm{e.Deliverer, e.Msg.ID}] = true
		}
	}
	for _, e := range tr {
		if e.Kind != trace.SendKind {
			continue
		}
		for _, p := range r.Group {
			if !delivered[pm{p, e.Msg.ID}] {
				return false
			}
		}
	}
	return true
}

// TotalOrder: "processes that deliver the same two messages deliver them
// in the same order".
type TotalOrder struct{}

var _ Property = TotalOrder{}

// Name implements Property.
func (TotalOrder) Name() string { return "Total Order" }

// Holds implements Property.
func (TotalOrder) Holds(tr trace.Trace) bool {
	// position[p][m] is the index of p's first delivery of m in p's
	// local delivery sequence.
	position := make(map[ids.ProcID]map[ids.MsgID]int)
	order := make(map[ids.ProcID][]ids.MsgID)
	for _, e := range tr {
		if e.Kind != trace.DeliverKind {
			continue
		}
		p := e.Deliverer
		if position[p] == nil {
			position[p] = make(map[ids.MsgID]int)
		}
		if _, seen := position[p][e.Msg.ID]; seen {
			continue // at-most-once violations judged by first delivery
		}
		position[p][e.Msg.ID] = len(order[p])
		order[p] = append(order[p], e.Msg.ID)
	}
	procs := make([]ids.ProcID, 0, len(order))
	for p := range order {
		procs = append(procs, p)
	}
	var common []ids.MsgID
	for i := 0; i < len(procs); i++ {
		for j := i + 1; j < len(procs); j++ {
			p, q := procs[i], procs[j]
			// Extract p's order restricted to messages q also delivered
			// and compare with q's.
			common = common[:0]
			for _, m := range order[p] {
				if _, ok := position[q][m]; ok {
					common = append(common, m)
				}
			}
			for k := 1; k < len(common); k++ {
				if position[q][common[k-1]] > position[q][common[k]] {
					return false
				}
			}
		}
	}
	return true
}

// Integrity: "messages cannot be forged; they are sent by trusted
// processes" — every delivered message names a trusted sender.
type Integrity struct {
	Trusted map[ids.ProcID]bool
}

var _ Property = Integrity{}

// Name implements Property.
func (Integrity) Name() string { return "Integrity" }

// Holds implements Property.
func (p Integrity) Holds(tr trace.Trace) bool {
	for _, e := range tr {
		if e.Kind == trace.DeliverKind && !p.Trusted[e.Msg.Sender] {
			return false
		}
	}
	return true
}

// Confidentiality: "non-trusted processes cannot see messages from
// trusted processes".
type Confidentiality struct {
	Trusted map[ids.ProcID]bool
}

var _ Property = Confidentiality{}

// Name implements Property.
func (Confidentiality) Name() string { return "Confidentiality" }

// Holds implements Property.
func (p Confidentiality) Holds(tr trace.Trace) bool {
	for _, e := range tr {
		if e.Kind == trace.DeliverKind && p.Trusted[e.Msg.Sender] && !p.Trusted[e.Deliverer] {
			return false
		}
	}
	return true
}

// NoReplay: "a message body can be delivered at most once to a
// process". Note the property is about bodies, not message identities.
type NoReplay struct{}

var _ Property = NoReplay{}

// Name implements Property.
func (NoReplay) Name() string { return "No Replay" }

// Holds implements Property.
func (NoReplay) Holds(tr trace.Trace) bool {
	type pb struct {
		p    ids.ProcID
		body string
	}
	seen := make(map[pb]bool)
	for _, e := range tr {
		if e.Kind != trace.DeliverKind {
			continue
		}
		k := pb{e.Deliverer, e.Msg.Body}
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

// PrioritizedDelivery: "the master process always delivers a message
// before any one else".
type PrioritizedDelivery struct {
	Master ids.ProcID
}

var _ Property = PrioritizedDelivery{}

// Name implements Property.
func (PrioritizedDelivery) Name() string { return "Prioritized Delivery" }

// Holds implements Property.
func (p PrioritizedDelivery) Holds(tr trace.Trace) bool {
	masterHas := make(map[ids.MsgID]bool)
	for _, e := range tr {
		if e.Kind != trace.DeliverKind {
			continue
		}
		if e.Deliverer == p.Master {
			masterHas[e.Msg.ID] = true
			continue
		}
		if !masterHas[e.Msg.ID] {
			return false
		}
	}
	return true
}

// Amoeba: "a process is blocked from sending while it is awaiting its
// own messages" — between a process's Send(m) and its own Deliver(m),
// the process sends nothing else.
type Amoeba struct{}

var _ Property = Amoeba{}

// Name implements Property.
func (Amoeba) Name() string { return "Amoeba" }

// Holds implements Property.
func (Amoeba) Holds(tr trace.Trace) bool {
	outstanding := make(map[ids.ProcID]ids.MsgID)
	waiting := make(map[ids.ProcID]bool)
	for _, e := range tr {
		switch e.Kind {
		case trace.SendKind:
			p := e.Msg.Sender
			if waiting[p] {
				return false
			}
			outstanding[p] = e.Msg.ID
			waiting[p] = true
		case trace.DeliverKind:
			p := e.Deliverer
			if waiting[p] && e.Msg.Sender == p && e.Msg.ID == outstanding[p] {
				waiting[p] = false
			}
		}
	}
	return true
}

// VirtualSynchrony: "a process only delivers messages from processes in
// some common view". View changes are messages whose View field carries
// the new membership; a process's current view is the membership of the
// last view message it delivered (initially InitialView).
type VirtualSynchrony struct {
	InitialView []ids.ProcID
}

var _ Property = VirtualSynchrony{}

// Name implements Property.
func (VirtualSynchrony) Name() string { return "Virtual Synchrony" }

// Holds implements Property.
func (v VirtualSynchrony) Holds(tr trace.Trace) bool {
	views := make(map[ids.ProcID]map[ids.ProcID]bool)
	initial := make(map[ids.ProcID]bool, len(v.InitialView))
	for _, p := range v.InitialView {
		initial[p] = true
	}
	for _, e := range tr {
		if e.Kind != trace.DeliverKind {
			continue
		}
		p := e.Deliverer
		cur := views[p]
		if cur == nil {
			cur = initial
		}
		if e.Msg.IsView {
			next := make(map[ids.ProcID]bool, len(e.Msg.View))
			for _, m := range e.Msg.View {
				next[m] = true
			}
			views[p] = next
			continue
		}
		if !cur[e.Msg.Sender] {
			return false
		}
	}
	return true
}

// Table1 returns the paper's eight properties with conventional
// parameters for a group of n processes: the full group as receivers and
// initial view, processes 0..n-2 trusted (the last process untrusted),
// and process 0 as master.
func Table1(n int) []Property {
	if n < 2 {
		panic(fmt.Sprintf("property: Table1 needs n >= 2, got %d", n))
	}
	group := ids.Procs(n)
	trusted := make(map[ids.ProcID]bool, n-1)
	for _, p := range group[:n-1] {
		trusted[p] = true
	}
	return []Property{
		Reliability{Group: group},
		TotalOrder{},
		Integrity{Trusted: trusted},
		Confidentiality{Trusted: trusted},
		NoReplay{},
		PrioritizedDelivery{Master: 0},
		Amoeba{},
		VirtualSynchrony{InitialView: group},
	}
}

// Extensions returns the repository's extension properties beyond
// Table 1 (Causal Order, and the paper's §5.1 every-second example),
// with the same conventions as Table1.
func Extensions(n int) []Property {
	if n < 2 {
		panic(fmt.Sprintf("property: Extensions needs n >= 2, got %d", n))
	}
	return []Property{
		CausalOrder{},
		EverySecondDelivered{Group: ids.Procs(n)},
	}
}
