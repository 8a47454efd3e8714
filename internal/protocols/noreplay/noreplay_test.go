package noreplay

import (
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/protocols/ptest"
	"repro/internal/simnet"
)

func newUnit(t *testing.T) (*Layer, *ptest.RecordDown, *ptest.RecordUp) {
	t.Helper()
	l := New()
	down := &ptest.RecordDown{}
	up := &ptest.RecordUp{}
	if err := l.Init(ptest.NewFakeEnv(0, 2), down, up); err != nil {
		t.Fatal(err)
	}
	return l, down, up
}

func TestFirstDeliveryPasses(t *testing.T) {
	l, _, up := newUnit(t)
	l.Recv(1, []byte("body"))
	if len(up.Deliveries) != 1 || l.Suppressed() != 0 {
		t.Errorf("first delivery: delivered=%d suppressed=%d", len(up.Deliveries), l.Suppressed())
	}
}

func TestReplaySuppressed(t *testing.T) {
	l, _, up := newUnit(t)
	l.Recv(1, []byte("body"))
	l.Recv(1, []byte("body")) // replayed identical body
	l.Recv(2, []byte("body")) // same body from another source: still a replay
	if got := len(up.Deliveries); got != 1 {
		t.Errorf("delivered %d, want 1", got)
	}
	if l.Suppressed() != 2 {
		t.Errorf("Suppressed = %d, want 2", l.Suppressed())
	}
}

func TestDistinctBodiesPass(t *testing.T) {
	l, _, up := newUnit(t)
	l.Recv(1, []byte("a"))
	l.Recv(1, []byte("b"))
	l.Recv(1, []byte("c"))
	if got := len(up.Deliveries); got != 3 {
		t.Errorf("delivered %d, want 3", got)
	}
}

func TestPassthroughDown(t *testing.T) {
	l, down, _ := newUnit(t)
	if err := l.Cast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Send(1, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if len(down.Casts) != 1 || len(down.Sends) != 1 {
		t.Error("cast/send not passed through")
	}
}

func TestReplayAttackOverNetwork(t *testing.T) {
	// An adversary replays a captured packet; the layer suppresses it.
	var layers []*Layer
	c, err := ptest.New(1, simnet.Config{Nodes: 2, PropDelay: time.Millisecond}, 2,
		func(proto.Env) []proto.Layer {
			l := New()
			layers = append(layers, l)
			return []proto.Layer{l}
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cast(0, []byte("pay $100")); err != nil {
		t.Fatal(err)
	}
	c.Run(100 * time.Millisecond)
	// Replay the exact payload twice.
	for i := 0; i < 2; i++ {
		if err := c.Net.InjectForged(0, 1, []byte("pay $100")); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(time.Second)
	if got := c.Bodies(1); len(got) != 1 {
		t.Fatalf("replay not suppressed: %v", got)
	}
	if layers[1].Suppressed() != 2 {
		t.Errorf("Suppressed = %d, want 2", layers[1].Suppressed())
	}
}

func TestTwoInstancesDoNotShareHistory(t *testing.T) {
	// The heart of "memoryless but not composable" (§6.2): each
	// instance individually guarantees No Replay, but a body delivered
	// by instance A is happily delivered again by instance B — exactly
	// what happens across a protocol switch.
	a, _, upA := newUnit(t)
	b, _, upB := newUnit(t)
	a.Recv(1, []byte("body"))
	b.Recv(1, []byte("body"))
	if len(upA.Deliveries) != 1 || len(upB.Deliveries) != 1 {
		t.Fatal("instances misbehaved individually")
	}
	// The concatenated history delivered "body" twice to process 0.
	total := len(upA.Deliveries) + len(upB.Deliveries)
	if total != 2 {
		t.Fatal("expected the composed execution to deliver the body twice")
	}
}

func TestInitValidation(t *testing.T) {
	if err := New().Init(nil, nil, nil); err == nil {
		t.Error("Init accepted nil wiring")
	}
}

func TestEmptyBody(t *testing.T) {
	l, _, up := newUnit(t)
	l.Recv(1, nil)
	l.Recv(1, []byte{})
	if len(up.Deliveries) != 1 {
		t.Errorf("empty body should count as one body; delivered %d", len(up.Deliveries))
	}
}
