package chaos

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/metaprop"
	"repro/internal/trace"
)

// allFaults enables every fault tier at once, as the cross-tier sweep does.
var allFaults = GenConfig{Corruption: true, Forgery: true, FlashCrowd: true, GrayFailure: true}

// cleanRun is a passing all-fault run with at least three survivors and
// one completed switch: its trace, survivors and group size.
func cleanRun(t *testing.T) (trace.Trace, []ids.ProcID, int) {
	t.Helper()
	for seed := int64(1); seed <= 50; seed++ {
		sched, err := Generate(seed, allFaults)
		if err != nil {
			t.Fatal(err)
		}
		res, c, err := run(sched, RunConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed() || len(res.Live) < 3 || res.FinalEpoch == 0 {
			continue
		}
		tr, err := runTrace(c, res.Live)
		if err != nil {
			t.Fatal(err)
		}
		return tr, res.Live, sched.N
	}
	t.Fatal("no passing all-fault run with three survivors and a switch in seeds 1..50")
	return nil, nil, 0
}

// start is the index in tr of member p's first delivery.
func start(tr trace.Trace, p ids.ProcID) int {
	return slices.IndexFunc(tr, func(e trace.Event) bool { return e.Deliverer >= p })
}

// indexOf is the index in tr of member p's delivery of id, or -1.
func indexOf(tr trace.Trace, p ids.ProcID, id ids.MsgID) int {
	i := slices.IndexFunc(block(tr, p), func(e trace.Event) bool { return e.Msg.ID == id })
	if i < 0 {
		return -1
	}
	return start(tr, p) + i
}

// deliveredByAll reports whether every live member delivered id.
func deliveredByAll(tr trace.Trace, live []ids.ProcID, id ids.MsgID) bool {
	for _, p := range live {
		if indexOf(tr, p, id) < 0 {
			return false
		}
	}
	return true
}

func epochOf(t *testing.T, e trace.Event) int {
	t.Helper()
	epoch, ok := epochTag(e.Msg.Body)
	if !ok {
		t.Fatalf("untagged body %q", e.Msg.Body)
	}
	return epoch
}

// swapCommon swaps, at live[0], two adjacent same-epoch deliveries that
// live[1] also made.
func swapCommon(t *testing.T, tr trace.Trace, live []ids.ProcID) trace.Trace {
	tr = tr.Clone()
	a := block(tr, live[0])
	for k := 0; k+1 < len(a); k++ {
		if epochOf(t, a[k]) == epochOf(t, a[k+1]) &&
			indexOf(tr, live[1], a[k].Msg.ID) >= 0 && indexOf(tr, live[1], a[k+1].Msg.ID) >= 0 {
			a[k], a[k+1] = a[k+1], a[k]
			return tr
		}
	}
	t.Fatal("no adjacent same-epoch pair shared by the first two survivors")
	return nil
}

// redeliver makes member p deliver its k-th message a second time, right
// after the first.
func redeliver(tr trace.Trace, p ids.ProcID, k int) trace.Trace {
	i := start(tr, p) + k
	return slices.Insert(tr.Clone(), i+1, tr[i].Clone())
}

// relabel makes member p's k-th delivery name the adversary as sender.
func relabel(tr trace.Trace, p ids.ProcID, k int) trace.Trace {
	tr = tr.Clone()
	tr[start(tr, p)+k].Msg.Sender = adversary
	return tr
}

// moveAcrossEpoch takes the first epoch-e+1 delivery at live[0] whose
// predecessor is epoch e, both delivered by every survivor, and moves it
// before that predecessor at every survivor. Doing it everywhere keeps
// the survivors agreeing on order, so only the epoch boundary breaks.
func moveAcrossEpoch(t *testing.T, tr trace.Trace, live []ids.ProcID) trace.Trace {
	a := block(tr, live[0])
	for k := 1; k < len(a); k++ {
		x, m := a[k-1], a[k]
		if epochOf(t, m) != epochOf(t, x)+1 || !deliveredByAll(tr, live, x.Msg.ID) || !deliveredByAll(tr, live, m.Msg.ID) {
			continue
		}
		out := tr.Clone()
		for _, p := range live {
			ix, im := indexOf(out, p, x.Msg.ID), indexOf(out, p, m.Msg.ID)
			e := out[im]
			out = slices.Insert(slices.Delete(out, im, im+1), ix, e)
		}
		return out
	}
	t.Fatal("no epoch step delivered by every survivor at the first survivor")
	return nil
}

// TestDeliveryChecksHaveTeeth mutates a real all-fault run's trace four
// ways and requires each mutation to yield exactly the violation it
// should, and the unmutated trace none.
func TestDeliveryChecksHaveTeeth(t *testing.T) {
	tr, live, n := cleanRun(t)
	if v := checkDeliveries(tr, live, n); len(v) != 0 {
		t.Fatalf("unmutated trace: %q", v)
	}
	a, b, c := live[0], live[1], live[2]
	one := func(name string, mutated trace.Trace, want string) {
		t.Helper()
		v := checkDeliveries(mutated, live, n)
		if len(v) != 1 || !strings.HasPrefix(v[0], want) {
			t.Errorf("%s: got %q, want one violation starting %q", name, v, want)
		}
	}
	one("swap", swapCommon(t, tr, live), "Total Order: members "+a.String()+" and "+b.String()+" disagree")
	one("redeliver", redeliver(tr, b, 3), "No Replay: member "+b.String()+" delivered")
	one("relabel", relabel(tr, c, 2), "Integrity: member "+c.String()+" delivered")

	v := checkDeliveries(moveAcrossEpoch(t, tr, live), live, n)
	if len(v) != len(live) {
		t.Fatalf("epoch move: got %q, want one epoch-boundary violation per survivor", v)
	}
	for i, p := range live {
		if want := "epoch boundary: member " + p.String() + " "; !strings.HasPrefix(v[i], want) {
			t.Errorf("epoch move: violation %d = %q, want prefix %q", i, v[i], want)
		}
	}
}

// TestDeliveryViolationsDeterministic checks one input that breaks
// several members at once fifty times: the violations must come out as
// the same slice every time, so a failure record is byte-identical
// across runs and across -parallel values.
func TestDeliveryViolationsDeterministic(t *testing.T) {
	tr, live, n := cleanRun(t)
	mutated := moveAcrossEpoch(t, tr, live)
	for _, p := range live[1:] {
		mutated = relabel(redeliver(mutated, p, 1), p, 4)
	}
	want := checkDeliveries(mutated, live, n)
	if len(want) < len(live)+2 {
		t.Fatalf("mutated input yields too few violations to order: %q", want)
	}
	for i := 0; i < 50; i++ {
		if got := checkDeliveries(mutated, live, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("check %d: violations\n%q\nwant\n%q", i, got, want)
		}
	}
}

// TestCheckedPropertiesAreTable2s pins the checked list against Table 2.
// Total Order and Integrity are in the class SP preserves under any
// protocol pair (every meta-property ✓). No Replay is not Composable
// (§6.2), so SP does not preserve it on its own; it is checked because
// Hardened's per-epoch key schedule provides it across epochs.
// Confidentiality is in the preserved class too but is not checked: the
// chaos stack authenticates and does not encrypt, so nothing provides it.
func TestCheckedPropertiesAreTable2s(t *testing.T) {
	m, err := metaprop.Compute(false)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range deliveryProperties(4) {
		names = append(names, p.Name())
	}
	if want := []string{"Total Order", "Integrity", "No Replay"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("checked properties %q, want %q", names, want)
	}
	for _, prop := range []string{"Total Order", "Integrity", "Confidentiality"} {
		if ok, err := m.AllPreserved(prop); err != nil || !ok {
			t.Errorf("AllPreserved(%s) = %v, %v; want true", prop, ok, err)
		}
	}
	if ok, err := m.Preserved("No Replay", "Composable"); err != nil || ok {
		t.Errorf("No Replay × Composable = %v, %v; want false (§6.2)", ok, err)
	}
}
