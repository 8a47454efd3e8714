// Package metaprop implements §5–6 of the paper: meta-properties —
// predicates on properties — realized as preservation of a property
// under a relation on traces (Equation 1):
//
//	P(tr_below) ∧ tr_above R tr_below ⇒ P(tr_above)
//
// Five meta-properties are relations applied to a single trace (Safety,
// Asynchrony, Delayable, Send Enabled, Memoryless); the sixth,
// Composable, is a binary condition on concatenation. The paper proved
// in Nuprl that a property with all six is preserved by the switching
// protocol; this package substitutes bounded exhaustive enumeration:
// every ✗ cell of Table 2 comes with a shortest counterexample, and
// every ✓ cell is a proof up to the per-cell bound — no trace within
// it breaks Equation 1 (see DESIGN.md §2 for the substitution
// rationale).
package metaprop

import (
	"repro/internal/ids"
	"repro/internal/trace"
)

// Relation is one of the paper's trace relations: the
// reflexive-transitive closure of its elementary rewrites.
type Relation interface {
	// Name returns the meta-property's §5–6 name.
	Name() string
	// Rewrites calls yield with each tr_above one elementary rewrite of
	// below produces, and stops as soon as yield returns false.
	Rewrites(below trace.Trace, yield func(above trace.Trace) bool)
}

// Safety (§5.1): tr_above is a prefix of tr_below — "taking events off
// the end of a trace" must not break the property.
type Safety struct{}

// Name implements Relation.
func (Safety) Name() string { return "Safety" }

// Rewrites implements Relation: every proper prefix.
func (Safety) Rewrites(below trace.Trace, yield func(trace.Trace) bool) {
	for k := 0; k < len(below); k++ {
		if !yield(below.Prefix(k)) {
			return
		}
	}
}

// Asynchrony (§5.2): adjacent events of *different* processes may be
// swapped — global orderings can be lost to delays between processes.
type Asynchrony struct{}

// Name implements Relation.
func (Asynchrony) Name() string { return "Asynchronous" }

// Rewrites implements Relation.
func (Asynchrony) Rewrites(below trace.Trace, yield func(trace.Trace) bool) {
	swaps(below, trace.Trace.CanSwapAsync, yield)
}

// Delayable (§5.3): adjacent Send and Deliver events of the *same*
// process may be swapped — a layer delays Sends going down and Delivers
// going up.
type Delayable struct{}

// Name implements Relation.
func (Delayable) Name() string { return "Delayable" }

// Rewrites implements Relation.
func (Delayable) Rewrites(below trace.Trace, yield func(trace.Trace) bool) {
	swaps(below, trace.Trace.CanSwapDelayable, yield)
}

// swaps yields every legal adjacent swap of below.
func swaps(below trace.Trace, can func(trace.Trace, int) bool, yield func(trace.Trace) bool) {
	for i := 0; i+1 < len(below); i++ {
		if !can(below, i) {
			continue
		}
		above, err := below.SwapAdjacent(i)
		if err != nil || !yield(above) {
			return
		}
	}
}

// SendEnabled (§5.4): new Send events may be appended — a protocol
// "typically does not restrict when the layer above sends messages".
type SendEnabled struct {
	// Procs is the process population appended sends may come from.
	Procs int
}

// Name implements Relation.
func (SendEnabled) Name() string { return "Send Enabled" }

// Rewrites implements Relation: one fresh Send appended, from any
// process, with a body that collides with the enumerator's ("b") or a
// fresh one ("x").
func (r SendEnabled) Rewrites(below trace.Trace, yield func(trace.Trace) bool) {
	n := r.Procs
	if n <= 0 {
		n = 2
	}
	next := below.MaxMsgID() + 1
	for s := 0; s < n; s++ {
		for _, body := range []string{"b", "x"} {
			m := trace.Message{ID: next, Sender: ids.ProcID(s), Body: body}
			if !yield(below.AppendSends(m)) {
				return
			}
		}
	}
}

// Memoryless (§6.1): all events pertaining to some messages may be
// removed — "whether such a message was ever sent or delivered is no
// longer of importance".
type Memoryless struct{}

// Name implements Relation.
func (Memoryless) Name() string { return "Memoryless" }

// Rewrites implements Relation: every message erased whole, one at a
// time.
func (Memoryless) Rewrites(below trace.Trace, yield func(trace.Trace) bool) {
	for _, id := range below.MessageIDs() {
		if !yield(below.EraseMessages(map[ids.MsgID]bool{id: true})) {
			return
		}
	}
}

// Relations returns the five unary relations in Table 2 column order
// for a population of n processes.
func Relations(n int) []Relation {
	return []Relation{
		Safety{},
		Asynchrony{},
		SendEnabled{Procs: n},
		Delayable{},
		Memoryless{},
	}
}
