package tokenorder

import (
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

func cluster(t *testing.T, seed int64, cfg simnet.Config, n int, lcfg Config) *ptest.Cluster {
	t.Helper()
	c, err := ptest.New(seed, cfg, n, func(proto.Env) []proto.Layer {
		return []proto.Layer{New(lcfg), fifo.New(fifo.Config{})}
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

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
	c := cluster(t, 1, cfg, 4, Config{HoldDelay: time.Millisecond})
	for i := 0; i < 10; i++ {
		if err := c.Cast(2, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(2 * time.Second)
	c.Stop()
	assertTotalOrder(t, c, 10)
}

func TestConcurrentSendersAgree(t *testing.T) {
	cfg := simnet.Config{Nodes: 5, PropDelay: time.Millisecond}
	c := cluster(t, 3, cfg, 5, Config{HoldDelay: time.Millisecond})
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
	c.Run(10 * time.Second)
	c.Stop()
	assertTotalOrder(t, c, 40)
}

func TestTotalOrderUnderLoss(t *testing.T) {
	cfg := simnet.Config{Nodes: 4, PropDelay: time.Millisecond}
	c := cluster(t, 9, cfg, 4, Config{HoldDelay: time.Millisecond})
	if err := c.Net.SetFaults(0.15, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for s := 0; s < 4; s++ {
			if err := c.Cast(ids.ProcID(s), []byte(fmt.Sprintf("s%d-%d", s, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Run(60 * time.Second)
	c.Stop()
	assertTotalOrder(t, c, 32)
}

func TestPerSenderFIFOWithinTotalOrder(t *testing.T) {
	cfg := simnet.Config{Nodes: 3, PropDelay: time.Millisecond}
	c := cluster(t, 5, cfg, 3, Config{HoldDelay: time.Millisecond})
	for i := 0; i < 5; i++ {
		if err := c.Cast(1, []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(2 * time.Second)
	c.Stop()
	got := c.Bodies(2)
	if len(got) != 5 {
		t.Fatalf("delivered %d, want 5", len(got))
	}
	for i, b := range got {
		if b != fmt.Sprintf("%d", i) {
			t.Fatalf("per-sender FIFO violated: %v", got)
		}
	}
}

func TestOriginIsReported(t *testing.T) {
	cfg := simnet.Config{Nodes: 3, PropDelay: time.Millisecond}
	c := cluster(t, 1, cfg, 3, Config{HoldDelay: time.Millisecond})
	if err := c.Cast(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.Run(2 * time.Second)
	c.Stop()
	d := c.Members[1].Delivered
	if len(d) != 1 || d[0].Src != 2 {
		t.Fatalf("delivery = %+v, want src p2", d)
	}
}

func TestSenderWaitsForToken(t *testing.T) {
	// With a 5ms hold delay and 4 members, a member that just released
	// the token waits ~a full rotation before its next cast goes out.
	cfg := simnet.Config{Nodes: 4, PropDelay: time.Millisecond}
	c := cluster(t, 1, cfg, 4, Config{HoldDelay: 5 * time.Millisecond})
	// Warm up the rotation, then cast from member 3.
	c.Run(100 * time.Millisecond)
	start := c.Sim.Now()
	if err := c.Cast(3, []byte("waited")); err != nil {
		t.Fatal(err)
	}
	c.Run(start + time.Second)
	c.Stop()
	d := c.Members[0].Delivered
	if len(d) != 1 {
		t.Fatal("no delivery")
	}
	lat := d[0].At - start
	// Must be at least one hold delay (token elsewhere), typically ~half
	// a rotation (4 members * ~6ms/hop = 24ms rotation).
	if lat < 2*time.Millisecond {
		t.Errorf("token-order latency %v suspiciously low — sender did not wait for token", lat)
	}
	if lat > 50*time.Millisecond {
		t.Errorf("token-order latency %v too high for a healthy rotation", lat)
	}
}

func TestSingletonGroup(t *testing.T) {
	cfg := simnet.Config{Nodes: 1}
	c := cluster(t, 1, cfg, 1, Config{HoldDelay: time.Millisecond})
	for i := 0; i < 3; i++ {
		if err := c.Cast(0, []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(time.Second)
	c.Stop()
	got := c.Bodies(0)
	if len(got) != 3 {
		t.Fatalf("singleton delivered %d, want 3: %v", len(got), got)
	}
}

func TestSendUnsupported(t *testing.T) {
	l := New(Config{})
	if err := l.Send(1, nil); err != proto.ErrUnsupported {
		t.Errorf("Send = %v, want ErrUnsupported", err)
	}
}

func TestInitValidation(t *testing.T) {
	l := New(Config{})
	if err := l.Init(nil, nil, nil); err == nil {
		t.Error("Init accepted nil wiring")
	}
}

func TestRecvIgnoresGarbage(t *testing.T) {
	l := New(Config{})
	l.Recv(0, nil)
	l.Recv(0, []byte{kindData}) // truncated
	l.Recv(0, []byte{99})       // unknown kind
	if l.QueueLen() != 0 || l.Holding() {
		t.Error("garbage affected layer state")
	}
}

func TestCastCopiesPayload(t *testing.T) {
	cfg := simnet.Config{Nodes: 2, PropDelay: time.Millisecond}
	c := cluster(t, 1, cfg, 2, Config{HoldDelay: time.Millisecond})
	payload := []byte("orig")
	if err := c.Cast(1, payload); err != nil {
		t.Fatal(err)
	}
	payload[0] = 'X'
	c.Run(time.Second)
	c.Stop()
	if got := c.Bodies(0); len(got) != 1 || got[0] != "orig" {
		t.Errorf("queued payload aliased caller slice: %v", got)
	}
}

// TestInOrderRecvAllocs: a sequenced message that arrives in order goes
// from Recv to the layer above without an allocation.
func TestInOrderRecvAllocs(t *testing.T) {
	l := New(Config{})
	delivered := 0
	up := proto.UpFunc(func(ids.ProcID, []byte) { delivered++ })
	if err := l.Init(ptest.NewFakeEnv(1, 3), &ptest.RecordDown{}, up); err != nil {
		t.Fatal(err)
	}
	pkt := make([]byte, 0, 32)
	seq := uint64(0)
	got := testing.AllocsPerRun(1000, func() {
		pkt = append(binary.AppendUvarint(append(pkt[:0], kindData), seq), "hello"...)
		l.Recv(0, pkt)
		seq++
	})
	if got != 0 || delivered != 1001 {
		t.Errorf("an in-order Recv allocates %v (delivered %d), want 0", got, delivered)
	}
}

// batchFrame encodes a kindBatch frame carrying n entries from first.
func batchFrame(dst []byte, first uint64, n int, body string) []byte {
	dst = binary.AppendUvarint(binary.AppendUvarint(append(dst, kindBatch), first), uint64(n))
	for i := 0; i < n; i++ {
		dst = append(binary.AppendUvarint(dst, uint64(len(body))), body...)
	}
	return dst
}

// TestInOrderBatchRecvAllocs: the entries of an in-order kindBatch go up
// as views of the frame — no per-entry copy, no allocation.
func TestInOrderBatchRecvAllocs(t *testing.T) {
	l := New(Config{BatchFlush: true})
	delivered := 0
	up := proto.UpFunc(func(ids.ProcID, []byte) { delivered++ })
	if err := l.Init(ptest.NewFakeEnv(1, 3), &ptest.RecordDown{}, up); err != nil {
		t.Fatal(err)
	}
	pkt := make([]byte, 0, 128)
	seq := uint64(0)
	got := testing.AllocsPerRun(1000, func() {
		pkt = batchFrame(pkt[:0], seq, 8, "hello")
		l.Recv(0, pkt)
		seq += 8
	})
	if got != 0 || delivered != 8*1001 {
		t.Errorf("an in-order 8-entry batch allocates %v (delivered %d), want 0", got, delivered)
	}
}

// TestBatchIsAllOrNothing: fifo below has already consumed the packet,
// so a batch damaged at its k-th entry must not deliver entries 0..k-1 —
// nothing would ever repair the rest and the stream would wedge.
func TestBatchIsAllOrNothing(t *testing.T) {
	good := batchFrame(nil, 0, 4, "hello")
	for name, pkt := range map[string][]byte{
		"truncated":        good[:len(good)-3],
		"trailing garbage": append(append([]byte(nil), good...), 0xEE),
		"count too large":  append([]byte{kindBatch, 0, 3}, 0, 0),
	} {
		l := New(Config{BatchFlush: true})
		delivered := 0
		up := proto.UpFunc(func(ids.ProcID, []byte) { delivered++ })
		if err := l.Init(ptest.NewFakeEnv(1, 3), &ptest.RecordDown{}, up); err != nil {
			t.Fatal(err)
		}
		l.Recv(0, pkt)
		if delivered != 0 || l.MalformedDropped() != 1 || l.in.Next() != 0 || l.in.Pending() != 0 {
			t.Errorf("%s: delivered %d, malformed %d, next %d, pending %d; want 0, 1, 0, 0",
				name, delivered, l.MalformedDropped(), l.in.Next(), l.in.Pending())
		}
		// The intact frame still goes through afterwards.
		l.Recv(0, good)
		if delivered != 4 || l.in.Next() != 4 {
			t.Errorf("%s: intact batch afterwards delivered %d, next %d; want 4, 4", name, delivered, l.in.Next())
		}
	}
}
