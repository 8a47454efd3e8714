package causal

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/protocols/fifo"
	"repro/internal/protocols/ptest"
	"repro/internal/simnet"
)

func cluster(t *testing.T, seed int64, cfg simnet.Config, n int) (*ptest.Cluster, []*Layer) {
	t.Helper()
	var layers []*Layer
	c, err := ptest.New(seed, cfg, n, func(proto.Env) []proto.Layer {
		l := New()
		layers = append(layers, l)
		return []proto.Layer{l, fifo.New(fifo.Config{})}
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, layers
}

func TestBasicDelivery(t *testing.T) {
	c, _ := cluster(t, 1, simnet.Config{Nodes: 3, PropDelay: time.Millisecond}, 3)
	for i := 0; i < 5; i++ {
		if err := c.Cast(0, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(time.Second)
	for p := 0; p < 3; p++ {
		got := c.Bodies(ids.ProcID(p))
		if len(got) != 5 {
			t.Fatalf("member %d delivered %d, want 5", p, len(got))
		}
		for i, b := range got {
			if b != fmt.Sprintf("m%d", i) {
				t.Fatalf("member %d FIFO-per-sender violated: %v", p, got)
			}
		}
	}
}

// TestCausalReplyOrdering is the canonical causal scenario: a reply
// must never be delivered before the message it replies to, even when
// the network favours the replier.
func TestCausalReplyOrdering(t *testing.T) {
	cfg := simnet.Config{Nodes: 3, PropDelay: time.Millisecond}
	c, layers := cluster(t, 1, cfg, 3)
	// p2 cannot hear p0 for a while: the original message is delayed.
	c.Net.Block(0, 2)
	if err := c.Cast(0, []byte("question")); err != nil {
		t.Fatal(err)
	}
	c.Run(50 * time.Millisecond)
	// p1 has the question; its reply is causally after it.
	if got := c.Bodies(1); len(got) != 1 || got[0] != "question" {
		t.Fatalf("p1 state: %v", got)
	}
	if err := c.Cast(1, []byte("answer")); err != nil {
		t.Fatal(err)
	}
	c.Run(100 * time.Millisecond)
	// The answer reached p2 but must be causally blocked.
	if got := c.Bodies(2); len(got) != 0 {
		t.Fatalf("p2 delivered %v before the question", got)
	}
	if layers[2].Pending() == 0 {
		t.Fatal("p2 is not buffering the answer")
	}
	// Heal the link: fifo repairs the question, then both deliver in
	// causal order.
	c.Net.Unblock(0, 2)
	c.Run(2 * time.Second)
	got := c.Bodies(2)
	if len(got) != 2 || got[0] != "question" || got[1] != "answer" {
		t.Fatalf("p2 delivered %v, want [question answer]", got)
	}
	if layers[2].MaxBuffered() == 0 {
		t.Error("buffering high-water mark not recorded")
	}
}

func TestConcurrentMessagesBothDelivered(t *testing.T) {
	cfg := simnet.Config{Nodes: 3, PropDelay: time.Millisecond}
	c, _ := cluster(t, 5, cfg, 3)
	if err := c.Net.SetFaults(0, 0, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.Cast(0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := c.Cast(1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Second)
	for p := 0; p < 3; p++ {
		if got := c.Bodies(ids.ProcID(p)); len(got) != 2 {
			t.Fatalf("member %d delivered %v", p, got)
		}
	}
}

func TestSenderDeliversOwnMessages(t *testing.T) {
	c, layers := cluster(t, 1, simnet.Config{Nodes: 2}, 2)
	if err := c.Cast(0, []byte("self")); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Second)
	if got := c.Bodies(0); len(got) != 1 {
		t.Fatalf("sender delivered %v", got)
	}
	if clk := layers[0].Clock(); clk[0] != 1 || clk[1] != 0 {
		t.Errorf("clock = %v", clk)
	}
}

func TestUnderLossAndJitter(t *testing.T) {
	cfg := simnet.Config{Nodes: 4, PropDelay: time.Millisecond}
	c, _ := cluster(t, 9, cfg, 4)
	if err := c.Net.SetFaults(0.2, 0, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for s := 0; s < 4; s++ {
			if err := c.Cast(ids.ProcID(s), []byte(fmt.Sprintf("s%d-%d", s, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Run(30 * time.Second)
	for p := 0; p < 4; p++ {
		got := c.Bodies(ids.ProcID(p))
		if len(got) != 32 {
			t.Fatalf("member %d delivered %d/32 under loss", p, len(got))
		}
		// Per-sender FIFO is implied by causal order.
		next := map[byte]int{}
		for _, b := range got {
			s := b[1]
			var idx int
			if _, err := fmt.Sscanf(b[3:], "%d", &idx); err != nil {
				t.Fatal(err)
			}
			if idx != next[s] {
				t.Fatalf("member %d: sender %c out of order: %v", p, s, got)
			}
			next[s]++
		}
	}
}

func TestGarbageIgnored(t *testing.T) {
	l := New()
	up := &ptest.RecordUp{}
	if err := l.Init(ptest.NewFakeEnv(0, 2), &ptest.RecordDown{}, up); err != nil {
		t.Fatal(err)
	}
	l.Recv(1, nil)
	l.Recv(1, []byte{1, 5})    // count mismatch vs ring size 2
	l.Recv(9, []byte{2, 1, 0}) // unknown sender
	if len(up.Deliveries) != 0 || l.Pending() != 0 {
		t.Error("garbage affected state")
	}
}

func TestDuplicateDropped(t *testing.T) {
	l := New()
	up := &ptest.RecordUp{}
	if err := l.Init(ptest.NewFakeEnv(0, 2), &ptest.RecordDown{}, up); err != nil {
		t.Fatal(err)
	}
	sender := New()
	down := &ptest.RecordDown{}
	if err := sender.Init(ptest.NewFakeEnv(1, 2), down, &ptest.RecordUp{}); err != nil {
		t.Fatal(err)
	}
	if err := sender.Cast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	pkt := down.Casts[0]
	l.Recv(1, pkt)
	l.Recv(1, pkt) // duplicate
	if len(up.Deliveries) != 1 {
		t.Errorf("delivered %d, want 1", len(up.Deliveries))
	}
	if l.Pending() != 0 {
		t.Error("duplicate parked in pending queue")
	}
}

func TestSendUnsupported(t *testing.T) {
	if err := New().Send(1, nil); err != proto.ErrUnsupported {
		t.Error("Send should be unsupported")
	}
}

func TestInitValidation(t *testing.T) {
	if err := New().Init(nil, nil, nil); err == nil {
		t.Error("Init accepted nil wiring")
	}
}
