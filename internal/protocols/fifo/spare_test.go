package fifo

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/protocols/ptest"
	"repro/internal/simnet"
)

// encodeData builds a data packet in a fresh buffer, as a peer's layer
// would send it.
func encodeData(kind uint8, seq uint64, payload []byte) []byte {
	return appendData(make([]byte, 0, 12+len(payload)), kind, seq, payload)
}

// lastDown keeps a copy of the latest frame sent through it, in one
// reused buffer: a Down that copies what it keeps and allocates nothing
// once warm.
type lastDown struct{ frame []byte }

func (d *lastDown) Cast(p []byte) error { d.frame = append(d.frame[:0], p...); return nil }

func (d *lastDown) Send(_ ids.ProcID, p []byte) error {
	d.frame = append(d.frame[:0], p...)
	return nil
}

// TestCastAckCycleAllocs: once warm, a cast and a send that are acked —
// the cast by the sender's own loopback and both peers, the send by its
// destination — allocate nothing: the acked packets' buffers carry the
// next packets.
func TestCastAckCycleAllocs(t *testing.T) {
	l := New(Config{})
	down := &lastDown{}
	if err := l.Init(ptest.NewFakeEnv(0, 3), down, proto.UpFunc(func(ids.ProcID, []byte) {})); err != nil {
		t.Fatal(err)
	}
	payload := []byte("a payload of some length")
	var ack []byte
	ackFrom := func(src ids.ProcID, castNext, sendNext uint64) {
		ack = binary.AppendUvarint(append(ack[:0], kindAck), castNext)
		ack = binary.AppendUvarint(ack, sendNext)
		l.Recv(src, ack)
	}
	var seq uint64
	got := testing.AllocsPerRun(1000, func() {
		if err := l.Cast(payload); err != nil {
			t.Fatal(err)
		}
		l.Recv(0, down.frame) // the loopback copy
		if err := l.Send(1, payload); err != nil {
			t.Fatal(err)
		}
		seq++
		ackFrom(1, seq, seq)
		ackFrom(2, seq, 0)
	})
	if got != 0 {
		t.Errorf("a warm cast+send→ack cycle allocates %v, want 0", got)
	}
	if l.castOut.n != 0 || l.peers[1].sendOut.n != 0 {
		t.Errorf("after the acks %d casts and %d sends are held, want none", l.castOut.n, l.peers[1].sendOut.n)
	}
}

// TestSparesWithinHighWater: the spare stack never holds more buffers
// than the layer once held at one time — unacked packets and copies of
// arrivals waiting behind a gap together — under loss, with payload
// sizes that make recycled buffers too small at times.
func TestSparesWithinHighWater(t *testing.T) {
	cfg := simnet.Config{Nodes: 3, PropDelay: time.Millisecond}
	c, layers, taps := tappedCluster(t, 5, cfg, 3)
	if err := c.Net.SetFaults(0.2, 0, 0); err != nil {
		t.Fatal(err)
	}
	l := layers[0]
	held := func() int {
		n := l.castOut.n
		for p := range l.peers {
			n += l.peers[p].sendOut.n + l.peers[p].castIn.Pending() + l.peers[p].sendIn.Pending()
		}
		return n
	}
	// Buffers are taken only by the casts and sends below and by
	// arrivals, so the most ever held is the most held right after one of
	// them.
	highWater := 0
	check := func(when string) {
		highWater = max(highWater, held())
		if s := l.spare.Len(); held()+s > highWater {
			t.Fatalf("%s: %d spares beside %d held packets, high-water %d", when, s, held(), highWater)
		}
	}
	for i := 0; i < 200; i++ {
		body := make([]byte, 1+(i*37)%90)
		if err := c.Cast(0, body); err != nil {
			t.Fatal(err)
		}
		taps[0].received = func() { check(fmt.Sprintf("an arrival in step %d", i)) }
		check(fmt.Sprintf("cast %d", i))
		if err := c.Members[0].Stack.Send(ids.ProcID(1+i%2), body); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("send %d", i))
		c.Run(time.Duration(i+1) * 5 * time.Millisecond)
		check(fmt.Sprintf("after step %d", i))
	}
	c.Run(5 * time.Second)
	check("drained")
	if held() != 0 || l.spare.Len() == 0 {
		t.Errorf("set-up: %d packets still held, %d spares after the drain", held(), l.spare.Len())
	}
}
