package seqorder

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/protocols/fifo"
	"repro/internal/protocols/ptest"
	"repro/internal/simnet"
)

func cluster(t *testing.T, seed int64, cfg simnet.Config, n int) *ptest.Cluster {
	t.Helper()
	c, err := ptest.New(seed, cfg, n, func(proto.Env) []proto.Layer {
		return []proto.Layer{New(0), fifo.New(fifo.Config{})}
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// assertTotalOrder checks that all members delivered exactly the same
// sequence of bodies.
func assertTotalOrder(t *testing.T, c *ptest.Cluster, wantCount int) {
	t.Helper()
	ref := c.Bodies(0)
	if len(ref) != wantCount {
		t.Fatalf("member 0 delivered %d, want %d: %v", len(ref), wantCount, ref)
	}
	for p := 1; p < len(c.Members); p++ {
		got := c.Bodies(ids.ProcID(p))
		if len(got) != len(ref) {
			t.Fatalf("member %d delivered %d, member 0 delivered %d", p, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("member %d disagrees at %d: %q vs %q", p, i, got[i], ref[i])
			}
		}
	}
}

func TestSingleSenderTotalOrder(t *testing.T) {
	cfg := simnet.Config{Nodes: 4, PropDelay: time.Millisecond}
	c := cluster(t, 1, cfg, 4)
	for i := 0; i < 10; i++ {
		if err := c.Cast(2, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(time.Second)
	assertTotalOrder(t, c, 10)
}

func TestConcurrentSendersAgree(t *testing.T) {
	cfg := simnet.Config{Nodes: 5, PropDelay: time.Millisecond}
	c := cluster(t, 3, cfg, 5)
	if err := c.Net.SetFaults(0, 0, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for s := 0; s < 5; s++ {
			if err := c.Cast(ids.ProcID(s), []byte(fmt.Sprintf("s%d-%d", s, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Run(5 * time.Second)
	assertTotalOrder(t, c, 40)
}

func TestSequencerAsSender(t *testing.T) {
	cfg := simnet.Config{Nodes: 3, PropDelay: time.Millisecond}
	c := cluster(t, 1, cfg, 3)
	if err := c.Cast(0, []byte("from-sequencer")); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Second)
	assertTotalOrder(t, c, 1)
}

func TestTotalOrderUnderLoss(t *testing.T) {
	cfg := simnet.Config{Nodes: 4, PropDelay: time.Millisecond}
	c := cluster(t, 9, cfg, 4)
	if err := c.Net.SetFaults(0.2, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		for s := 0; s < 4; s++ {
			if err := c.Cast(ids.ProcID(s), []byte(fmt.Sprintf("s%d-%d", s, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Run(30 * time.Second)
	assertTotalOrder(t, c, 40)
}

func TestPerSenderFIFOWithinTotalOrder(t *testing.T) {
	cfg := simnet.Config{Nodes: 3, PropDelay: time.Millisecond}
	c := cluster(t, 5, cfg, 3)
	for i := 0; i < 5; i++ {
		if err := c.Cast(1, []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(time.Second)
	got := c.Bodies(2)
	for i, b := range got {
		if b != fmt.Sprintf("%d", i) {
			t.Fatalf("per-sender FIFO violated: %v", got)
		}
	}
}

func TestOriginIsReported(t *testing.T) {
	cfg := simnet.Config{Nodes: 3, PropDelay: time.Millisecond}
	c := cluster(t, 1, cfg, 3)
	if err := c.Cast(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Second)
	// Receivers must see the origin, not the sequencer, as src.
	d := c.Members[1].Delivered
	if len(d) != 1 || d[0].Src != 2 {
		t.Fatalf("delivery = %+v, want src p2", d)
	}
}

func TestSendUnsupported(t *testing.T) {
	l := New(0)
	if err := l.Send(1, nil); err != proto.ErrUnsupported {
		t.Errorf("Send = %v, want ErrUnsupported", err)
	}
}

func TestInitValidation(t *testing.T) {
	l := New(0)
	if err := l.Init(nil, nil, nil); err == nil {
		t.Error("Init accepted nil wiring")
	}
	// Sequencer outside the group.
	if _, err := ptest.New(1, simnet.Config{Nodes: 2}, 2, func(proto.Env) []proto.Layer {
		return []proto.Layer{New(7), fifo.New(fifo.Config{})}
	}); err == nil {
		t.Error("Init accepted sequencer outside the group")
	}
}

func TestRecvIgnoresGarbage(t *testing.T) {
	cfg := simnet.Config{Nodes: 2}
	c := cluster(t, 1, cfg, 2)
	c.Members[1].Stack.Recv(0, nil)
	// Craft a truncated kindOrder directly into the order layer — the
	// stack bottom is fifo, so feed via a fresh layer instead.
	l := New(0)
	l.Recv(0, []byte{2}) // kindOrder, truncated
	l.Recv(0, []byte{1}) // kindSubmit at non-sequencer
	c.Run(100 * time.Millisecond)
	if got := c.Bodies(1); len(got) != 0 {
		t.Errorf("garbage delivered: %v", got)
	}
}

func TestNonSequencerIgnoresSubmit(t *testing.T) {
	cfg := simnet.Config{Nodes: 3, PropDelay: time.Millisecond}
	c := cluster(t, 1, cfg, 3)
	// Member 1 is not the sequencer; a submit reaching it must be
	// dropped rather than ordered.
	sub := append([]byte{1}, []byte("evil")...)
	c.Members[1].Stack.Recv(2, sub)
	c.Run(time.Second)
	for p := 0; p < 3; p++ {
		if got := c.Bodies(ids.ProcID(p)); len(got) != 0 {
			t.Fatalf("member %d delivered %v", p, got)
		}
	}
}

func TestLatencyIsAboutTwoHops(t *testing.T) {
	// With 1ms propagation and no other costs, a non-sequencer cast
	// takes ~2ms (submit hop + order hop) to reach other members.
	cfg := simnet.Config{Nodes: 3, PropDelay: time.Millisecond}
	c := cluster(t, 1, cfg, 3)
	if err := c.Cast(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Second)
	d := c.Members[2].Delivered
	if len(d) != 1 {
		t.Fatal("no delivery")
	}
	if d[0].At != 2*time.Millisecond {
		t.Errorf("latency = %v, want 2ms (two network hops)", d[0].At)
	}
}

// TestInOrderRecvAllocs: a sequenced message that arrives in order goes
// from Recv to the layer above without an allocation.
func TestInOrderRecvAllocs(t *testing.T) {
	l := New(0)
	delivered := 0
	up := proto.UpFunc(func(ids.ProcID, []byte) { delivered++ })
	if err := l.Init(ptest.NewFakeEnv(1, 3), &ptest.RecordDown{}, up); err != nil {
		t.Fatal(err)
	}
	pkt := make([]byte, 0, 32)
	seq := uint64(0)
	got := testing.AllocsPerRun(1000, func() {
		pkt = binary.AppendUvarint(append(pkt[:0], kindOrder), seq)
		pkt = append(binary.AppendVarint(pkt, 2), "hello"...) // origin 2
		l.Recv(0, pkt)
		seq++
	})
	if got != 0 || delivered != 1001 {
		t.Errorf("an in-order Recv allocates %v (delivered %d), want 0", got, delivered)
	}
}

// reentrantDown re-enters the layer above from inside a Cast, as a
// transport that delivers synchronously would, and records whether the
// outer frame's bytes survived the inner call.
type reentrantDown struct {
	reenter func()
	depth   int
	casts   int
	intact  bool
}

func (d *reentrantDown) Cast(frame []byte) error {
	d.casts++
	if d.reenter == nil || d.depth > 0 {
		return nil
	}
	before := bytes.Clone(frame)
	d.depth++
	d.reenter()
	d.depth--
	d.intact = bytes.Equal(frame, before)
	return nil
}

func (d *reentrantDown) Send(ids.ProcID, []byte) error { return nil }

// TestReentrantCastKeepsOuterFrame: a cast that re-enters the sequencer
// while its order frame is lent below gets a buffer of its own, so the
// outer frame's bytes are intact when the inner cast returns — with
// spare buffers on hand, not only on the first cast.
func TestReentrantCastKeepsOuterFrame(t *testing.T) {
	l := New(0)
	down := &reentrantDown{}
	if err := l.Init(ptest.NewFakeEnv(0, 3), down, proto.UpFunc(func(ids.ProcID, []byte) {})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_ = l.Cast([]byte("warm-up"))
	}
	if l.spare.Len() == 0 {
		t.Fatal("set-up: no spare buffer after the warm-up casts")
	}
	down.reenter = func() { _ = l.Cast([]byte("the inner cast, other bytes")) }
	if err := l.Cast([]byte("the outer cast")); err != nil {
		t.Fatal(err)
	}
	if down.casts != 5 || !down.intact {
		t.Errorf("%d frames cast, outer frame intact %v; want 5 and true", down.casts, down.intact)
	}
}
