package metaprop

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/property"
	"repro/internal/trace"
)

// Exhaustive bounded verification — the closest executable analogue of
// the paper's Nuprl proof [3]. Instead of sampling, EnumCheck walks
// EVERY well-formed trace up to a length bound over a small universe of
// processes and messages, applies every elementary rewrite of the
// relation, and checks Equation 1. For a ✓ cell this *proves*
// preservation up to the bound (any counterexample expressible with
// that many events would have been found); for a ✗ cell it finds a
// minimal counterexample.
//
// The universe is deliberately tiny — the violations in this paper's
// domain are all expressible with two or three processes and messages
// (see the witness registry) — so the search stays in the tens of
// millions of property evaluations even at MaxLen 6.

// EnumConfig bounds the exhaustive search.
type EnumConfig struct {
	// Procs and Messages bound the event universe.
	Procs, Messages int
	// MaxLen bounds the trace length.
	MaxLen int
}

// universe builds the event alphabet: one Send per message and one
// Deliver per (process, message) pair.
//
//   - message 1: data from the last process, body "b";
//   - message 2: data from process 0, body "b" (colliding bodies give
//     No Replay something to object to);
//   - message 3 (if Messages >= 3): a view excluding the last process;
//   - message 4 (if Messages >= 4): a view re-admitting everyone —
//     erasing it is Virtual Synchrony's Memoryless counterexample;
//   - further messages: data, round-robin senders.
func (c EnumConfig) universe() []trace.Event {
	last := ids.ProcID(c.Procs - 1)
	msgs := make([]trace.Message, c.Messages)
	for i := range msgs {
		m := trace.Message{ID: ids.MsgID(i + 1), Body: "b"}
		switch {
		case i == 0:
			m.Sender = last
		case i == 1:
			m.Sender = 0
		case i == 2:
			m.Sender = 0
			m.IsView = true
			m.Body = ""
			m.View = ids.Procs(c.Procs - 1)
			if c.Procs == 1 {
				m.View = ids.Procs(1)
			}
		case i == 3:
			m.Sender = 0
			m.IsView = true
			m.Body = ""
			m.View = ids.Procs(c.Procs)
		default:
			m.Sender = ids.ProcID(i % c.Procs)
		}
		msgs[i] = m
	}
	var events []trace.Event
	for _, m := range msgs {
		events = append(events, trace.Send(m))
		for p := 0; p < c.Procs; p++ {
			events = append(events, trace.Deliver(ids.ProcID(p), m))
		}
	}
	return events
}

// EnumCheck exhaustively verifies one (property, relation) cell up to
// the bound. It returns the first counterexample found, or nil if the
// relation provably preserves the property for every trace expressible
// within the bound.
func EnumCheck(p property.Property, r Relation, c EnumConfig) (*Counterexample, error) {
	if c.Procs < 1 || c.Messages < 1 || c.MaxLen < 1 {
		return nil, fmt.Errorf("metaprop: degenerate enum config %+v", c)
	}
	alphabet := c.universe()
	var cur trace.Trace
	var cex *Counterexample
	var walk func() bool
	walk = func() bool {
		if len(cur) > 0 {
			if cur.Validate() == nil && p.Holds(cur) {
				if found := applyAll(p, r, cur); found != nil {
					cex = found
					return true
				}
			}
		}
		if len(cur) == c.MaxLen {
			return false
		}
		for _, e := range alphabet {
			cur = append(cur, e)
			if walk() {
				return true
			}
			cur = cur[:len(cur)-1]
		}
		return false
	}
	walk()
	return cex, nil
}

// applyAll applies every single elementary rewrite of r to tr and
// checks the property still holds. Single rewrites suffice: the
// relations are reflexive-transitive closures, so if some chain of
// rewrites breaks the property, the first breaking step is itself a
// single-rewrite counterexample from a still-satisfying trace.
func applyAll(p property.Property, r Relation, tr trace.Trace) *Counterexample {
	check := func(above trace.Trace) *Counterexample {
		if !p.Holds(above) {
			return &Counterexample{
				Property: p.Name(),
				Relation: r.Name(),
				Below:    tr.Clone(),
				Above:    above,
			}
		}
		return nil
	}
	switch rel := r.(type) {
	case Safety:
		for k := 0; k < len(tr); k++ {
			if cex := check(tr.Prefix(k)); cex != nil {
				return cex
			}
		}
	case Asynchrony:
		for i := 0; i+1 < len(tr); i++ {
			if !tr.CanSwapAsync(i) {
				continue
			}
			above, err := tr.SwapAdjacent(i)
			if err != nil {
				continue
			}
			if cex := check(above); cex != nil {
				return cex
			}
		}
	case Delayable:
		for i := 0; i+1 < len(tr); i++ {
			if !tr.CanSwapDelayable(i) {
				continue
			}
			above, err := tr.SwapAdjacent(i)
			if err != nil {
				continue
			}
			if cex := check(above); cex != nil {
				return cex
			}
		}
	case SendEnabled:
		// Appending any single fresh Send, from any process, with a
		// colliding or fresh body.
		next := tr.MaxMsgID() + 1
		n := rel.Procs
		if n <= 0 {
			n = 2
		}
		for s := 0; s < n; s++ {
			for _, body := range []string{"b", "x"} {
				m := trace.Message{ID: next, Sender: ids.ProcID(s), Body: body}
				if cex := check(tr.AppendSends(m)); cex != nil {
					return cex
				}
			}
		}
	case Memoryless:
		for _, id := range tr.MessageIDs() {
			above := tr.EraseMessages(map[ids.MsgID]bool{id: true})
			if cex := check(above); cex != nil {
				return cex
			}
		}
	default:
		return nil
	}
	return nil
}

// EnumCheckComposable exhaustively verifies the Composable cell: every
// ordered pair of satisfying traces (the second renumbered into a
// disjoint id range) whose concatenation violates the property. The
// per-trace length is capped at 3 — pairs grow quadratically, and every
// known composability violation needs only a send and a delivery per
// side.
func EnumCheckComposable(p property.Property, c EnumConfig) (*Counterexample, error) {
	if c.Procs < 1 || c.Messages < 1 || c.MaxLen < 1 {
		return nil, fmt.Errorf("metaprop: degenerate enum config %+v", c)
	}
	if c.MaxLen > 3 {
		c.MaxLen = 3
	}
	// Enumerate satisfying traces once, then try all ordered pairs with
	// the second renumbered into a disjoint id range.
	var satisfying []trace.Trace
	alphabet := c.universe()
	var cur trace.Trace
	var walk func()
	walk = func() {
		if len(cur) > 0 && cur.Validate() == nil && p.Holds(cur) {
			satisfying = append(satisfying, cur.Clone())
		}
		if len(cur) == c.MaxLen {
			return
		}
		for _, e := range alphabet {
			cur = append(cur, e)
			walk()
			cur = cur[:len(cur)-1]
		}
	}
	walk()
	for _, tr1 := range satisfying {
		for _, tr2 := range satisfying {
			shifted := tr2.RenumberFrom(uint64(tr1.MaxMsgID()))
			combined, err := tr1.Concat(shifted)
			if err != nil {
				continue
			}
			if !p.Holds(combined) {
				return &Counterexample{
					Property: p.Name(),
					Relation: "Composable",
					Below:    tr1,
					Extra:    shifted,
					Above:    combined,
				}, nil
			}
		}
	}
	return nil, nil
}
