package metaprop

import (
	"fmt"
	"strings"

	"repro/internal/ids"
	"repro/internal/property"
	"repro/internal/trace"
)

// Exhaustive bounded verification — the closest executable analogue of
// the paper's Nuprl proof [3]. EnumCheck walks EVERY well-formed trace
// up to a length bound over a small universe of processes and
// messages, shortest first, applies every elementary rewrite of the
// relation, and checks Equation 1. For a ✓ cell this *proves*
// preservation up to the bound (any counterexample expressible with
// that many events would have been found); for a ✗ cell it returns a
// shortest counterexample.
//
// The universe is deliberately tiny — every ✗ cell of Table 2 has a
// counterexample with two processes and at most five messages — so the
// whole matrix, extension rows included, enumerates in about a second
// on a 2-core Xeon.

// Counterexample witnesses that a relation does not preserve a
// property: Below satisfies it, Above = R(Below) does not. For
// Composable, Below and Extra are the two concatenated traces and Above
// their concatenation.
type Counterexample struct {
	Property string
	Relation string
	Below    trace.Trace
	Extra    trace.Trace // Composable only
	Above    trace.Trace
}

// String renders the counterexample for humans.
func (c Counterexample) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s is not %s:\n-- tr_below --\n%v\n", c.Property, c.Relation, c.Below)
	if c.Extra != nil {
		fmt.Fprintf(&b, "-- tr_2 --\n%v\n", c.Extra)
	}
	fmt.Fprintf(&b, "-- tr_above (violates) --\n%v", c.Above)
	return b.String()
}

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

// walk calls visit with every well-formed trace of exactly n events
// over alphabet, in alphabet order, and stops as soon as visit returns
// false. The trace passed to visit is reused: clone it to keep it. A
// second Send of one message is the only ill-formed event the universe
// holds, and no extension of an ill-formed trace is well-formed, so
// the walk prunes there.
func walk(alphabet []trace.Event, n int, visit func(trace.Trace) bool) {
	cur := make(trace.Trace, 0, n)
	sent := map[ids.MsgID]bool{}
	var step func() bool
	step = func() bool {
		if len(cur) == n {
			return visit(cur)
		}
		for _, e := range alphabet {
			send := e.Kind == trace.SendKind
			if send {
				if sent[e.Msg.ID] {
					continue
				}
				sent[e.Msg.ID] = true
			}
			cur = append(cur, e)
			more := step()
			cur = cur[:len(cur)-1]
			if send {
				sent[e.Msg.ID] = false
			}
			if !more {
				return false
			}
		}
		return true
	}
	step()
}

// EnumCheck exhaustively verifies one (property, relation) cell up to
// the bound. It searches by increasing trace length and returns a
// counterexample with the shortest tr_below, or nil if the relation
// provably preserves the property for every trace expressible within
// the bound.
func EnumCheck(p property.Property, r Relation, c EnumConfig) (*Counterexample, error) {
	if c.Procs < 1 || c.Messages < 1 || c.MaxLen < 1 {
		return nil, fmt.Errorf("metaprop: degenerate enum config %+v", c)
	}
	alphabet := c.universe()
	var cex *Counterexample
	for n := 1; n <= c.MaxLen && cex == nil; n++ {
		walk(alphabet, n, func(below trace.Trace) bool {
			if !p.Holds(below) {
				return true
			}
			r.Rewrites(below, func(above trace.Trace) bool {
				if p.Holds(above) {
					return true
				}
				cex = &Counterexample{
					Property: p.Name(),
					Relation: r.Name(),
					Below:    below.Clone(),
					Above:    above,
				}
				return false
			})
			return cex == nil
		})
	}
	return cex, nil
}

// EnumCheckComposable exhaustively verifies the Composable cell: every
// ordered pair of satisfying traces of up to MaxLen events each (the
// second renumbered into a disjoint id range), tried by increasing
// combined length, so a counterexample is a shortest one. Pairs grow
// quadratically, so callers keep MaxLen small (cellEnumConfig uses 3).
func EnumCheckComposable(p property.Property, c EnumConfig) (*Counterexample, error) {
	if c.Procs < 1 || c.Messages < 1 || c.MaxLen < 1 {
		return nil, fmt.Errorf("metaprop: degenerate enum config %+v", c)
	}
	// byLen[n] holds the satisfying traces of exactly n events.
	alphabet := c.universe()
	byLen := make([][]trace.Trace, c.MaxLen+1)
	for n := 1; n <= c.MaxLen; n++ {
		walk(alphabet, n, func(tr trace.Trace) bool {
			if p.Holds(tr) {
				byLen[n] = append(byLen[n], tr.Clone())
			}
			return true
		})
	}
	for total := 2; total <= 2*c.MaxLen; total++ {
		for n1 := max(1, total-c.MaxLen); n1 <= min(c.MaxLen, total-1); n1++ {
			for _, tr1 := range byLen[n1] {
				for _, tr2 := range byLen[total-n1] {
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
		}
	}
	return nil, nil
}
