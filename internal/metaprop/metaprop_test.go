package metaprop

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/ids"
	"repro/internal/trace"
)

// expectedMatrix is the derived Table 2 (see EXPERIMENTS.md). Every cell
// the paper's prose states explicitly is marked; the rest follow from
// the property formalizations. Column order: Safety, Asynchronous,
// Send Enabled, Delayable, Memoryless, Composable.
var expectedMatrix = map[string][6]bool{
	"Reliability":          {false, true, false, true, true, true},
	"Total Order":          {true, true, true, true, true, true},
	"Integrity":            {true, true, true, true, true, true},
	"Confidentiality":      {true, true, true, true, true, true},
	"No Replay":            {true, true, true, true, true, false},
	"Prioritized Delivery": {true, false, true, true, true, true},
	"Amoeba":               {true, true, false, false, true, false},
	"Virtual Synchrony":    {true, true, true, true, false, false},
}

var (
	matrixOnce sync.Once
	matrix     *Matrix
	matrixErr  error
)

// computeMatrix returns the Table 2 matrix with the extension rows,
// computed once and shared by every test in the package.
func computeMatrix(t *testing.T) *Matrix {
	t.Helper()
	matrixOnce.Do(func() { matrix, matrixErr = Compute(true) })
	if matrixErr != nil {
		t.Fatal(matrixErr)
	}
	return matrix
}

func TestMatrixMatchesDerivation(t *testing.T) {
	m := computeMatrix(t)
	metas := m.Metas
	if len(metas) != 6 {
		t.Fatalf("got %d meta-properties, want 6", len(metas))
	}
	for prop, want := range expectedMatrix {
		for i, meta := range metas {
			got, err := m.Preserved(prop, meta)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[i] {
				t.Errorf("%s × %s = %v, want %v", prop, meta, got, want[i])
			}
		}
	}
}

// TestPaperProseCells pins exactly the cells the paper states in prose
// (§5–§6), independent of the full derivation above.
func TestPaperProseCells(t *testing.T) {
	m := computeMatrix(t)
	mustBe := func(prop, meta string, want bool) {
		t.Helper()
		got, err := m.Preserved(prop, meta)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("paper says %s × %s should be %v, computed %v", prop, meta, want, got)
		}
	}
	mustBe("Total Order", "Safety", true)                 // §5.1
	mustBe("Reliability", "Safety", false)                // §5.1
	mustBe("Prioritized Delivery", "Asynchronous", false) // §5.2
	mustBe("Amoeba", "Delayable", false)                  // §5.3
	mustBe("Amoeba", "Send Enabled", false)               // §5.4
	mustBe("Virtual Synchrony", "Memoryless", false)      // §6.1
	mustBe("No Replay", "Memoryless", true)               // §6.1
	mustBe("No Replay", "Composable", false)              // §6.2
}

// TestAllPreservedClass pins §6.3: Total Order, Integrity and
// Confidentiality have all six meta-properties and are therefore in the
// class the SP provably supports; the others are not.
func TestAllPreservedClass(t *testing.T) {
	m := computeMatrix(t)
	inClass := map[string]bool{
		"Total Order":     true,
		"Integrity":       true,
		"Confidentiality": true,
	}
	for _, prop := range m.Order {
		got, err := m.AllPreserved(prop)
		if err != nil {
			t.Fatal(err)
		}
		if got != inClass[prop] {
			t.Errorf("AllPreserved(%s) = %v, want %v", prop, got, inClass[prop])
		}
	}
}

// TestExtensionMatrixCausalOrder pins the extension row: Causal Order
// has every meta-property except Delayable — the same "outside the
// class yet preserved by SP" status the paper gives Reliability.
func TestExtensionMatrixCausalOrder(t *testing.T) {
	m := computeMatrix(t)
	want := map[string]bool{
		"Safety":       true,
		"Asynchronous": true,
		"Send Enabled": true,
		"Delayable":    false,
		"Memoryless":   true,
		"Composable":   true,
	}
	for meta, w := range want {
		got, err := m.Preserved("Causal Order", meta)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Errorf("Causal Order × %s = %v, want %v", meta, got, w)
		}
	}
	all, err := m.AllPreserved("Causal Order")
	if err != nil {
		t.Fatal(err)
	}
	if all {
		t.Error("Causal Order must be outside the SP-safe class")
	}
	// The §5.1 example: Safety, Send Enabled, Memoryless and Composable
	// all fail; only the two reordering relations leave it intact.
	wantES := map[string]bool{
		"Safety":       false,
		"Asynchronous": true,
		"Send Enabled": false,
		"Delayable":    true,
		"Memoryless":   false,
		"Composable":   false,
	}
	for meta, w := range wantES {
		got, err := m.Preserved("Every Second Delivered", meta)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Errorf("Every Second Delivered × %s = %v, want %v", meta, got, w)
		}
	}
}

// TestWitnessesAllVerify checks every cell of the computed matrix: a ✓
// cell carries no counterexample, and the counterexample that witnesses
// a ✗ cell is genuine — tr_below satisfies the property, tr_above
// violates it, and tr_above is one elementary rewrite of tr_below (or,
// for Composable, the concatenation of two satisfying traces).
func TestWitnessesAllVerify(t *testing.T) {
	m := computeMatrix(t)
	for _, prop := range m.Order {
		p := propByName(t, prop)
		for _, c := range m.Rows[prop] {
			cex := c.Counterexample
			if c.Preserved != (cex == nil) {
				t.Errorf("%s × %s: Preserved=%v with counterexample %v", prop, c.Meta, c.Preserved, cex)
				continue
			}
			if cex == nil {
				continue
			}
			if cex.Property != prop || cex.Relation != c.Meta {
				t.Errorf("%s × %s: mislabelled counterexample %s × %s", prop, c.Meta, cex.Property, cex.Relation)
			}
			if !p.Holds(cex.Below) || p.Holds(cex.Above) {
				t.Errorf("%s × %s: bogus counterexample:\n%v", prop, c.Meta, cex)
			}
			if cex.String() == "" {
				t.Error("empty counterexample rendering")
			}
			if c.Meta == "Composable" {
				glued, err := cex.Below.Concat(cex.Extra)
				if err != nil || !p.Holds(cex.Extra) || !reflect.DeepEqual(glued, cex.Above) {
					t.Errorf("%s × Composable: tr_above is not tr_below ++ tr_2 of satisfying traces:\n%v", prop, cex)
				}
				continue
			}
			related := false
			relByName(t, c.Meta, 2).Rewrites(cex.Below, func(above trace.Trace) bool {
				related = reflect.DeepEqual(above, cex.Above)
				return !related
			})
			if !related {
				t.Errorf("%s × %s: tr_above is not a rewrite of tr_below:\n%v", prop, c.Meta, cex)
			}
		}
	}
}

// TestShortestCounterexamples pins the length of the shortest
// counterexample for the ✗ cells: len(tr_below), plus len(tr_2) for
// Composable. The enumerator searches by increasing length, so these
// are the minimum over the cell's bound, not the first hit of a
// depth-first walk.
func TestShortestCounterexamples(t *testing.T) {
	m := computeMatrix(t)
	want := map[[2]string]int{
		{"Reliability", "Safety"}:                  3, // Send, then both deliveries
		{"Reliability", "Send Enabled"}:            1,
		{"Prioritized Delivery", "Asynchronous"}:   2, // master first, then the other
		{"Amoeba", "Delayable"}:                    3,
		{"Amoeba", "Send Enabled"}:                 1,
		{"Virtual Synchrony", "Memoryless"}:        3, // exclude, re-admit, late delivery
		{"No Replay", "Composable"}:                2, // one delivery of body "b" per side
		{"Causal Order", "Delayable"}:              3,
		{"Every Second Delivered", "Safety"}:       4,
		{"Every Second Delivered", "Memoryless"}:   5,
		{"Every Second Delivered", "Composable"}:   2,
		{"Every Second Delivered", "Send Enabled"}: 1,
	}
	for cell, n := range want {
		prop, meta := cell[0], cell[1]
		var cex *Counterexample
		for _, c := range m.Rows[prop] {
			if c.Meta == meta {
				cex = c.Counterexample
			}
		}
		if cex == nil {
			t.Errorf("%s × %s: no counterexample", prop, meta)
			continue
		}
		if got := len(cex.Below) + len(cex.Extra); got != n {
			t.Errorf("%s × %s: counterexample has %d events, want the shortest, %d:\n%v", prop, meta, got, n, cex)
		}
	}
}

// TestRelationsPerturbStayRelated checks that every elementary rewrite
// (perturbation) keeps its relation's defining constraint: a prefix,
// per-process order kept, one same-process Send/Deliver swap, only a
// Send appended, a whole message erased.
func TestRelationsPerturbStayRelated(t *testing.T) {
	m1 := trace.Message{ID: 1, Sender: 0, Body: "a"}
	m2 := trace.Message{ID: 2, Sender: 1, Body: "b"}
	m3 := trace.Message{ID: 3, Sender: 0, Body: "c"}
	base := trace.Trace{
		trace.Send(m1), trace.Deliver(1, m1), trace.Send(m2), trace.Deliver(0, m1),
		trace.Deliver(0, m2), trace.Send(m3), trace.Deliver(1, m2), trace.Deliver(1, m3),
	}
	perProc := func(tr trace.Trace, p ids.ProcID) string {
		var b strings.Builder
		for _, e := range tr {
			if e.Proc() == p {
				b.WriteString(e.String())
			}
		}
		return b.String()
	}
	count := func(tr trace.Trace, id ids.MsgID) int {
		n := 0
		for _, e := range tr {
			if e.Msg.ID == id {
				n++
			}
		}
		return n
	}
	// swapped returns the index i where above is base with events i and
	// i+1 exchanged, or -1.
	swapped := func(above trace.Trace) int {
		for i := 0; i+1 < len(base); i++ {
			if !reflect.DeepEqual(above[i], base[i]) {
				if reflect.DeepEqual(above[i], base[i+1]) && reflect.DeepEqual(above[i+1], base[i]) &&
					reflect.DeepEqual(above[i+2:], base[i+2:]) {
					return i
				}
				return -1
			}
		}
		return -1
	}
	checks := map[string]func(above trace.Trace) bool{
		"Safety": func(above trace.Trace) bool {
			return len(above) < len(base) && reflect.DeepEqual(above, base[:len(above)])
		},
		"Asynchronous": func(above trace.Trace) bool {
			i := swapped(above)
			if i < 0 || base[i].Proc() == base[i+1].Proc() {
				return false
			}
			for _, p := range base.Processes() {
				if perProc(base, p) != perProc(above, p) {
					return false
				}
			}
			return true
		},
		"Delayable": func(above trace.Trace) bool {
			i := swapped(above)
			return i >= 0 && base[i].Proc() == base[i+1].Proc() && base[i].Kind != base[i+1].Kind
		},
		"Send Enabled": func(above trace.Trace) bool {
			return len(above) == len(base)+1 && reflect.DeepEqual(above[:len(base)], base) &&
				above[len(base)].Kind == trace.SendKind && count(base, above[len(base)].Msg.ID) == 0
		},
		"Memoryless": func(above trace.Trace) bool {
			if len(above.MessageIDs()) != len(base.MessageIDs())-1 {
				return false
			}
			for _, id := range above.MessageIDs() {
				if count(above, id) != count(base, id) {
					return false
				}
			}
			return true
		},
	}
	for _, r := range Relations(2) {
		check := checks[r.Name()]
		if check == nil {
			t.Fatalf("no check for relation %s", r.Name())
		}
		n := 0
		r.Rewrites(base, func(above trace.Trace) bool {
			n++
			if !check(above) {
				t.Errorf("%s rewrote\n%v\ninto an unrelated\n%v", r.Name(), base, above)
			}
			return true
		})
		if n < 2 {
			t.Errorf("%s has %d rewrites of\n%v, want several", r.Name(), n, base)
		}
		n = 0
		r.Rewrites(base, func(trace.Trace) bool { n++; return false })
		if n != 1 {
			t.Errorf("%s yielded %d rewrites after yield returned false, want 1", r.Name(), n)
		}
	}
}

// TestPerturbEmptyTraces: on an empty trace only Send Enabled has
// anything to rewrite, and its rewrites are single Sends.
func TestPerturbEmptyTraces(t *testing.T) {
	for _, r := range Relations(4) {
		r.Rewrites(nil, func(above trace.Trace) bool {
			if r.Name() != "Send Enabled" {
				t.Errorf("%s invented %v from an empty trace", r.Name(), above)
			} else if len(above) != 1 || above[0].Kind != trace.SendKind {
				t.Errorf("Send Enabled rewrote an empty trace into %v, want one Send", above)
			}
			return true
		})
	}
}

func TestMatrixRender(t *testing.T) {
	m := computeMatrix(t)
	out := m.Render()
	if !strings.Contains(out, "Total Order") || !strings.Contains(out, "Amoeba") {
		t.Error("render missing rows")
	}
	if !strings.Contains(out, "SP-safe") {
		t.Error("render missing SP-safe column")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 11 { // header + 8 properties + 2 extension rows
		t.Errorf("render has %d lines, want 11:\n%s", len(lines), out)
	}
}

func TestMatrixUnknownLookups(t *testing.T) {
	m := computeMatrix(t)
	if _, err := m.Preserved("Nope", "Safety"); err == nil {
		t.Error("unknown property accepted")
	}
	if _, err := m.Preserved("Amoeba", "Nope"); err == nil {
		t.Error("unknown meta accepted")
	}
	if _, err := m.AllPreserved("Nope"); err == nil {
		t.Error("unknown property accepted by AllPreserved")
	}
}
