package trace

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/ids"
)

func msg(id uint64, sender int32, body string) Message {
	return Message{ID: ids.MsgID(id), Sender: ids.ProcID(sender), Body: body}
}

func viewMsg(id uint64, sender int32, members ...int32) Message {
	m := Message{ID: ids.MsgID(id), Sender: ids.ProcID(sender), IsView: true}
	for _, p := range members {
		m.View = append(m.View, ids.ProcID(p))
	}
	return m
}

func TestEventProcOwnership(t *testing.T) {
	m := msg(1, 3, "x")
	if got := Send(m).Proc(); got != 3 {
		t.Errorf("Send owner = %v, want p3", got)
	}
	if got := Deliver(5, m).Proc(); got != 5 {
		t.Errorf("Deliver owner = %v, want p5", got)
	}
}

func TestValidateRejectsDuplicateSend(t *testing.T) {
	tr := Trace{Send(msg(1, 0, "a")), Send(msg(1, 0, "a"))}
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted duplicate Send")
	}
}

func TestValidateRejectsBadSendOwner(t *testing.T) {
	e := Send(msg(1, 0, "a"))
	e.Deliverer = 2
	if err := (Trace{e}).Validate(); err == nil {
		t.Error("Validate accepted Send with owner != sender")
	}
}

func TestValidateRejectsInvalidDeliverer(t *testing.T) {
	tr := Trace{Deliver(ids.Nobody, msg(1, 0, "a"))}
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted Deliver at invalid process")
	}
}

func TestValidateRejectsBadKind(t *testing.T) {
	tr := Trace{{Kind: Kind(99)}}
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted invalid event kind")
	}
}

func TestValidateAcceptsDuplicateDelivery(t *testing.T) {
	m := msg(1, 0, "a")
	tr := Trace{Send(m), Deliver(1, m), Deliver(1, m)}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate rejected duplicate delivery: %v", err)
	}
	if err := tr.ValidateAtMostOnce(); err == nil {
		t.Error("ValidateAtMostOnce accepted duplicate delivery")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tr := Trace{Send(viewMsg(1, 0, 0, 1))}
	cp := tr.Clone()
	cp[0].Msg.View[0] = 9
	if tr[0].Msg.View[0] == 9 {
		t.Error("Clone shared the View slice")
	}
}

func TestProcessesAndMessageIDs(t *testing.T) {
	m1, m2 := msg(1, 0, "a"), msg(2, 1, "b")
	tr := Trace{Send(m1), Deliver(2, m1), Send(m2)}
	procs := tr.Processes()
	want := []ids.ProcID{0, 2, 1}
	if !reflect.DeepEqual(procs, want) {
		t.Errorf("Processes() = %v, want %v", procs, want)
	}
	mids := tr.MessageIDs()
	if len(mids) != 2 || mids[0] != 1 || mids[1] != 2 {
		t.Errorf("MessageIDs() = %v", mids)
	}
}

func TestDelivered(t *testing.T) {
	m := msg(7, 0, "a")
	tr := Trace{Deliver(1, m), Send(m)}
	if !tr.Delivered(1, 7) || tr.Delivered(2, 7) {
		t.Error("Delivered gave wrong answer")
	}
}

func TestPrefixClamps(t *testing.T) {
	tr := Trace{Send(msg(1, 0, "a")), Deliver(1, msg(1, 0, "a"))}
	if got := len(tr.Prefix(-1)); got != 0 {
		t.Errorf("Prefix(-1) len = %d, want 0", got)
	}
	if got := len(tr.Prefix(99)); got != 2 {
		t.Errorf("Prefix(99) len = %d, want 2", got)
	}
	if got := len(tr.Prefix(1)); got != 1 {
		t.Errorf("Prefix(1) len = %d, want 1", got)
	}
}

func TestCanSwapAsync(t *testing.T) {
	m1, m2 := msg(1, 0, "a"), msg(2, 1, "b")
	tr := Trace{Send(m1), Send(m2), Deliver(1, m1), Deliver(1, m2)}
	if !tr.CanSwapAsync(0) {
		t.Error("events of different processes should be async-swappable")
	}
	if tr.CanSwapAsync(2) {
		t.Error("events of the same process must not be async-swappable")
	}
	if tr.CanSwapAsync(-1) || tr.CanSwapAsync(3) {
		t.Error("out-of-range indexes must not be swappable")
	}
}

func TestCanSwapDelayable(t *testing.T) {
	m1 := msg(1, 0, "a")
	m2 := msg(2, 0, "b")
	m3 := msg(3, 1, "c")
	// Same process, Send + Deliver of different messages: swappable.
	tr := Trace{Send(m2), Deliver(0, m3)}
	if !tr.CanSwapDelayable(0) {
		t.Error("same-process Send/Deliver of different msgs should swap")
	}
	// Same process, two Sends: not swappable (FIFO of sends preserved).
	tr = Trace{Send(m1), Send(m2)}
	if tr.CanSwapDelayable(0) {
		t.Error("two Sends must not be delayable-swappable")
	}
	// Different processes: not delayable.
	tr = Trace{Send(m1), Deliver(1, m1)}
	if tr.CanSwapDelayable(0) {
		t.Error("cross-process events must not be delayable-swappable")
	}
	// Same process, Send and Deliver of the SAME message: excluded.
	tr = Trace{Send(m1), Deliver(0, m1)}
	if tr.CanSwapDelayable(0) {
		t.Error("a message's own Send/Deliver at the sender must not swap")
	}
}

func TestSwapAdjacent(t *testing.T) {
	m1, m2 := msg(1, 0, "a"), msg(2, 1, "b")
	tr := Trace{Send(m1), Send(m2)}
	got, err := tr.SwapAdjacent(0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Msg.ID != 2 || got[1].Msg.ID != 1 {
		t.Errorf("SwapAdjacent result = %v", got)
	}
	// Original untouched.
	if tr[0].Msg.ID != 1 {
		t.Error("SwapAdjacent mutated the receiver")
	}
	if _, err := tr.SwapAdjacent(1); err == nil {
		t.Error("SwapAdjacent(1) on len-2 trace should fail")
	}
}

func TestAppendSends(t *testing.T) {
	tr := Trace{Send(msg(1, 0, "a"))}
	got := tr.AppendSends(msg(2, 1, "b"), msg(3, 2, "c"))
	if len(got) != 3 || got[2].Kind != SendKind || got[2].Msg.ID != 3 {
		t.Errorf("AppendSends = %v", got)
	}
	if len(tr) != 1 {
		t.Error("AppendSends mutated the receiver")
	}
}

func TestEraseMessages(t *testing.T) {
	m1, m2 := msg(1, 0, "a"), msg(2, 1, "b")
	tr := Trace{Send(m1), Send(m2), Deliver(1, m1), Deliver(0, m2)}
	got := tr.EraseMessages(map[ids.MsgID]bool{1: true})
	if len(got) != 2 {
		t.Fatalf("EraseMessages kept %d events, want 2", len(got))
	}
	for _, e := range got {
		if e.Msg.ID == 1 {
			t.Error("EraseMessages left an event of the erased message")
		}
	}
}

func TestConcatRejectsSharedMessages(t *testing.T) {
	a := Trace{Send(msg(1, 0, "a"))}
	b := Trace{Send(msg(1, 1, "b"))}
	if _, err := a.Concat(b); err == nil {
		t.Error("Concat accepted traces sharing a message ID")
	}
	c := Trace{Send(msg(2, 1, "b"))}
	got, err := a.Concat(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Msg.ID != 1 || got[1].Msg.ID != 2 {
		t.Errorf("Concat = %v", got)
	}
}

func TestDisjointAndRenumber(t *testing.T) {
	a := Trace{Send(msg(1, 0, "a")), Send(msg(2, 0, "b"))}
	b := Trace{Send(msg(2, 1, "c"))}
	if a.DisjointMessages(b) {
		t.Error("DisjointMessages missed shared id 2")
	}
	shifted := b.RenumberFrom(uint64(a.MaxMsgID()))
	if !a.DisjointMessages(shifted) {
		t.Error("RenumberFrom did not make traces disjoint")
	}
}

func TestMaxMsgIDEmpty(t *testing.T) {
	if got := (Trace{}).MaxMsgID(); got != 0 {
		t.Errorf("empty MaxMsgID = %v, want 0", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m1 := msg(1, 0, "hello")
	v := viewMsg(2, 1, 0, 1, 2)
	tr := Trace{Send(m1), Deliver(1, m1), Send(v), Deliver(0, v)}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("round trip mismatch:\nwant %v\ngot  %v", tr, got)
	}
}

func TestJSONRejectsUnknownKind(t *testing.T) {
	var tr Trace
	err := tr.UnmarshalJSON([]byte(`[{"kind":"explode","msg":{"id":1,"sender":0}}]`))
	if err == nil {
		t.Error("UnmarshalJSON accepted unknown kind")
	}
}

func TestJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{")); err == nil {
		t.Error("ReadJSON accepted malformed JSON")
	}
}

func TestStringRendering(t *testing.T) {
	m := msg(1, 0, "a")
	tr := Trace{Send(m), Deliver(1, m)}
	s := tr.String()
	if s == "" {
		t.Error("empty String rendering")
	}
	if SendKind.String() != "Send" || DeliverKind.String() != "Deliver" {
		t.Error("Kind.String wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown Kind.String empty")
	}
	if viewMsg(1, 0, 1).String() == "" || m.String() == "" {
		t.Error("Message.String empty")
	}
}
