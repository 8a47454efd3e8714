package proto

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ids"
)

// fakeEnv is a minimal Env for unit tests.
type fakeEnv struct {
	self ids.ProcID
	ring *ids.Ring
	rng  *rand.Rand
}

func newFakeEnv(t *testing.T, self ids.ProcID, n int) *fakeEnv {
	t.Helper()
	ring, err := ids.NewRing(ids.Procs(n))
	if err != nil {
		t.Fatal(err)
	}
	return &fakeEnv{self: self, ring: ring, rng: rand.New(rand.NewSource(1))}
}

func (e *fakeEnv) Self() ids.ProcID      { return e.self }
func (e *fakeEnv) Members() []ids.ProcID { return e.ring.Members() }
func (e *fakeEnv) Ring() *ids.Ring       { return e.ring }
func (e *fakeEnv) Now() time.Duration    { return 0 }
func (e *fakeEnv) Rand() *rand.Rand      { return e.rng }

type fakeTimer struct{}

func (fakeTimer) Stop() bool          { return false }
func (fakeTimer) Active() bool        { return false }
func (fakeTimer) Reset(time.Duration) {}

func (e *fakeEnv) After(time.Duration, func()) Timer { return fakeTimer{} }

// tagLayer prepends a tag byte going down and verifies/strips it going
// up — composition order becomes observable in the payload.
type tagLayer struct {
	tag     byte
	down    Down
	up      Up
	stopped bool
}

func (l *tagLayer) Init(_ Env, down Down, up Up) error {
	l.down, l.up = down, up
	return nil
}

func (l *tagLayer) Cast(payload []byte) error {
	return l.down.Cast(append([]byte{l.tag}, payload...))
}

func (l *tagLayer) Send(dst ids.ProcID, payload []byte) error {
	return l.down.Send(dst, append([]byte{l.tag}, payload...))
}

func (l *tagLayer) Recv(src ids.ProcID, payload []byte) {
	if len(payload) == 0 || payload[0] != l.tag {
		return // drop: header mismatch
	}
	l.up.Deliver(src, payload[1:])
}

func (l *tagLayer) Stop() { l.stopped = true }

// loopTransport echoes every Cast/Send back into a handler, emulating a
// single-process network.
type loopTransport struct {
	onPacket func(payload []byte)
	sends    []ids.ProcID
}

func (t *loopTransport) Cast(payload []byte) error {
	t.onPacket(payload)
	return nil
}

func (t *loopTransport) Send(dst ids.ProcID, payload []byte) error {
	t.sends = append(t.sends, dst)
	t.onPacket(payload)
	return nil
}

func TestBuildValidatesArgs(t *testing.T) {
	env := newFakeEnv(t, 0, 1)
	app := UpFunc(func(ids.ProcID, []byte) {})
	tr := &loopTransport{onPacket: func([]byte) {}}
	if _, err := Build(nil, app, tr); err == nil {
		t.Error("Build accepted nil env")
	}
	if _, err := Build(env, nil, tr); err == nil {
		t.Error("Build accepted nil app")
	}
	if _, err := Build(env, app, nil); err == nil {
		t.Error("Build accepted nil transport")
	}
}

func TestStackCompositionOrder(t *testing.T) {
	env := newFakeEnv(t, 0, 1)
	var wirePayload []byte
	tr := &loopTransport{}
	var delivered []byte
	app := UpFunc(func(_ ids.ProcID, b []byte) { delivered = bytes.Clone(b) }) // borrowed for the call
	a := &tagLayer{tag: 'A'}
	b := &tagLayer{tag: 'B'}
	s, err := Build(env, app, tr, a, b) // A on top of B
	if err != nil {
		t.Fatal(err)
	}
	tr.onPacket = func(p []byte) {
		wirePayload = append([]byte(nil), p...)
		s.Recv(0, p)
	}
	if err := s.Cast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	// Headers must nest bottom-layer-outermost: B then A then payload.
	if !bytes.Equal(wirePayload, []byte("BAx")) {
		t.Errorf("wire payload = %q, want \"BAx\"", wirePayload)
	}
	if !bytes.Equal(delivered, []byte("x")) {
		t.Errorf("delivered = %q, want \"x\"", delivered)
	}
}

func TestStackSendPath(t *testing.T) {
	env := newFakeEnv(t, 0, 3)
	tr := &loopTransport{}
	var delivered []byte
	app := UpFunc(func(_ ids.ProcID, b []byte) { delivered = bytes.Clone(b) }) // borrowed for the call
	s, err := Build(env, app, tr, &tagLayer{tag: 'A'})
	if err != nil {
		t.Fatal(err)
	}
	tr.onPacket = func(p []byte) { s.Recv(0, p) }
	if err := s.Send(2, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if len(tr.sends) != 1 || tr.sends[0] != 2 {
		t.Errorf("transport sends = %v, want [p2]", tr.sends)
	}
	if !bytes.Equal(delivered, []byte("y")) {
		t.Errorf("delivered = %q", delivered)
	}
}

func TestEmptyStackPassthrough(t *testing.T) {
	env := newFakeEnv(t, 0, 1)
	tr := &loopTransport{}
	var delivered []byte
	app := UpFunc(func(_ ids.ProcID, b []byte) { delivered = bytes.Clone(b) }) // borrowed for the call
	s, err := Build(env, app, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.onPacket = func(p []byte) { s.Recv(0, p) }
	if err := s.Cast([]byte("z")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(delivered, []byte("z")) {
		t.Errorf("delivered = %q", delivered)
	}
	if err := s.Send(0, []byte("w")); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Errorf("Len = %d", s.Len())
	}
	s.Stop() // no-op, must not panic
}

type failingLayer struct{ tagLayer }

func (l *failingLayer) Init(Env, Down, Up) error { return errors.New("boom") }

func TestBuildPropagatesInitError(t *testing.T) {
	env := newFakeEnv(t, 0, 1)
	app := UpFunc(func(ids.ProcID, []byte) {})
	tr := &loopTransport{onPacket: func([]byte) {}}
	if _, err := Build(env, app, tr, &failingLayer{}); err == nil {
		t.Error("Build swallowed layer init error")
	}
}

func TestStopReachesAllLayers(t *testing.T) {
	env := newFakeEnv(t, 0, 1)
	app := UpFunc(func(ids.ProcID, []byte) {})
	tr := &loopTransport{onPacket: func([]byte) {}}
	a, b := &tagLayer{tag: 'A'}, &tagLayer{tag: 'B'}
	s, err := Build(env, app, tr, a, b)
	if err != nil {
		t.Fatal(err)
	}
	s.Stop()
	if !a.stopped || !b.stopped {
		t.Error("Stop did not reach every layer")
	}
}

func TestAppMsgRoundTrip(t *testing.T) {
	m := AppMsg{
		ID:     MakeMsgID(3, 17),
		Sender: 3,
		Body:   []byte("hello"),
		IsView: true,
		View:   []ids.ProcID{0, 1, 2},
	}
	got, err := DecodeApp(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("round trip: got %+v want %+v", got, m)
	}
}

func TestAppMsgDecodeGarbage(t *testing.T) {
	if _, err := DecodeApp([]byte{0xff}); err == nil {
		t.Error("DecodeApp accepted garbage")
	}
}

func TestAppMsgTraceMessage(t *testing.T) {
	m := AppMsg{ID: 5, Sender: 1, Body: []byte("b"), IsView: true, View: []ids.ProcID{0}}
	tm := m.TraceMessage()
	if tm.ID != 5 || tm.Sender != 1 || tm.Body != "b" || !tm.IsView || len(tm.View) != 1 {
		t.Errorf("TraceMessage = %+v", tm)
	}
	// Deep copy of view.
	tm.View[0] = 9
	if m.View[0] == 9 {
		t.Error("TraceMessage aliased the View slice")
	}
}

func TestMakeMsgIDUniqueness(t *testing.T) {
	f := func(s1, s2 uint8, q1, q2 uint32) bool {
		a := MakeMsgID(ids.ProcID(s1), q1)
		b := MakeMsgID(ids.ProcID(s2), q2)
		if s1 == s2 && q1 == q2 {
			return a == b
		}
		return a != b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: app messages with arbitrary bodies round-trip.
func TestAppMsgRoundTripProperty(t *testing.T) {
	f := func(id uint64, sender int16, body []byte) bool {
		m := AppMsg{ID: ids.MsgID(id), Sender: ids.ProcID(sender), Body: body}
		got, err := DecodeApp(m.Encode())
		if err != nil {
			return false
		}
		if len(body) == 0 {
			return len(got.Body) == 0 && got.ID == m.ID && got.Sender == m.Sender
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
