package simnet

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/obs"
)

func drain(sim *des.Sim) {
	for sim.Step() {
	}
}

// TestMulticastAllocs: once warm, a multicast allocates nothing — not
// its snapshot of the sender's payload, which is a recycled frame, nor a
// buffer per receiver, nor a closure, timer or record per frame or per
// delivery. The model is the paper's Ethernet, so both event legs of a
// delivery (arrival, then the CPU-queued handler) are on the path.
func TestMulticastAllocs(t *testing.T) {
	const nodes = 6
	sim, net := newNet(t, Ethernet10Mbit(nodes))
	delivered := 0
	for p := 0; p < nodes; p++ {
		if err := net.Bind(ids.ProcID(p), func(ids.ProcID, []byte) { delivered++ }); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, 200)
	round := func() {
		for src := 0; src < 3; src++ {
			_ = net.Multicast(ids.ProcID(src), payload)
		}
		drain(sim)
	}
	for i := 0; i < 10; i++ { // fill the free lists, grow the rings and the run
		round()
	}
	delivered = 0
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Errorf("3 multicasts to %d receivers allocate %v, want 0 (a recycled frame per transmission)", nodes, got)
	}
	if delivered != 201*3*nodes {
		t.Errorf("delivered %d, want %d", delivered, 201*3*nodes)
	}
}

// TestUnicastAllocs: once warm, a unicast allocates nothing, over the
// wire and on the local loop-back alike.
func TestUnicastAllocs(t *testing.T) {
	sim, net := newNet(t, Ethernet10Mbit(3))
	for p := 0; p < 3; p++ {
		if err := net.Bind(ids.ProcID(p), func(ids.ProcID, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, 64)
	round := func() {
		_ = net.Unicast(0, 1, payload)
		_ = net.Unicast(2, 2, payload) // loopback
		drain(sim)
	}
	for i := 0; i < 10; i++ {
		round()
	}
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Errorf("two unicasts allocate %v, want 0", got)
	}
}

// TestFaultedDeliveryAllocs: a duplicated delivery and a truncated one
// are views of the transmission's frame, so under both faults a warm
// multicast still allocates nothing. Acks and 2 KB batches, sent in
// turn, keep frames of their own size classes.
func TestFaultedDeliveryAllocs(t *testing.T) {
	const nodes = 4
	sim, net := newNet(t, Ethernet10Mbit(nodes))
	if err := net.SetFaults(0, 0.3, 0); err != nil {
		t.Fatal(err)
	}
	if err := net.SetCorruption(0, 0.3); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < nodes; p++ {
		if err := net.Bind(ids.ProcID(p), func(ids.ProcID, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	ack, batch := make([]byte, 6), make([]byte, 2048)
	round := func() {
		_ = net.Multicast(0, batch)
		_ = net.Unicast(1, 0, ack)
		_ = net.Multicast(2, batch)
		drain(sim)
	}
	for i := 0; i < 20; i++ {
		round()
	}
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Errorf("a round under duplication and truncation allocates %v, want 0", got)
	}
	if st := net.Stats(); st.Duplicated == 0 {
		t.Error("no delivery was duplicated: the fault is not on the path")
	}
}

// TestReentrantSendAllocs: a handler that sends from inside its call
// draws a frame while the one it was handed is still lent to it; once
// warm, that costs no allocation either.
func TestReentrantSendAllocs(t *testing.T) {
	const nodes = 3
	sim, net := newNet(t, Ethernet10Mbit(nodes))
	reply := make([]byte, 48)
	for p := 0; p < nodes; p++ {
		self := ids.ProcID(p)
		if err := net.Bind(self, func(src ids.ProcID, b []byte) {
			if len(b) == 200 && self != src {
				_ = net.Unicast(self, src, reply)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, 200)
	round := func() {
		_ = net.Multicast(0, payload)
		drain(sim)
	}
	for i := 0; i < 10; i++ {
		round()
	}
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Errorf("a multicast answered from inside its handlers allocates %v, want 0", got)
	}
}

// sameArray reports whether a and b start at the same byte of the same
// backing array (either may be a prefix of the other).
func sameArray(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestDeliveriesShareOneImmutableFrame: a transmission is snapshotted
// once and that one frame is what every receiver, and every duplicate, is
// handed; it never aliases the sender's slice, which the sender may reuse
// at once; InjectForged copies the caller's slice. With corruption and
// truncation on, the delivery a fault hits is private resp. shorter, and
// every other delivery of the same frame is intact. A delivery is
// borrowed for the call, so each is recorded as its view (for where it
// points) and a copy of its bytes (for what it read).
func TestDeliveriesShareOneImmutableFrame(t *testing.T) {
	const nodes = 5
	want := []byte("the quick brown fox jumps over the lazy dog")
	sim, net := newNet(t, Ethernet10Mbit(nodes))
	if err := net.SetFaults(0, 0.3, 0); err != nil {
		t.Fatal(err)
	}
	m := counted(net)
	type delivery struct{ view, read []byte }
	var got []delivery
	for p := 0; p < nodes; p++ {
		if err := net.Bind(ids.ProcID(p), func(_ ids.ProcID, b []byte) {
			got = append(got, delivery{b, bytes.Clone(b)})
		}); err != nil {
			t.Fatal(err)
		}
	}
	// transmit hands tx a slice holding want, overwrites that slice while
	// the frame is still in flight, and returns it with what was delivered.
	transmit := func(tx func(payload []byte)) (deliveries []delivery, sent []byte) {
		got = nil
		sent = append([]byte(nil), want...)
		tx(sent)
		for i := range sent {
			sent[i] = 0xFF
		}
		drain(sim)
		return got, sent
	}

	for i := 0; i < 50; i++ {
		deliveries, sent := transmit(func(b []byte) { _ = net.Multicast(ids.ProcID(i%nodes), b) })
		for _, d := range deliveries {
			if !bytes.Equal(d.read, want) {
				t.Fatalf("multicast %d delivered %q: the sender's later write showed through", i, d.read)
			}
			if !sameArray(d.view, deliveries[0].view) || sameArray(d.view, sent) {
				t.Fatalf("multicast %d: a delivery has a buffer of its own, or the sender's", i)
			}
		}
	}
	if st := net.Stats(); st.Duplicated == 0 || st.Delivered != 50*nodes+st.Duplicated {
		t.Fatalf("%d deliveries with %d duplicates, want frames that fan out to more deliveries than receivers", st.Delivered, st.Duplicated)
	}

	deliveries, sent := transmit(func(b []byte) {
		_ = net.InjectForged(0, 1, b)
		_ = net.Unicast(0, 2, b)
		_ = net.Unicast(3, 3, b)
	})
	if len(deliveries) < 3 {
		t.Fatalf("%d deliveries of an inject and two unicasts", len(deliveries))
	}
	for _, d := range deliveries {
		if !bytes.Equal(d.read, want) || sameArray(d.view, sent) {
			t.Errorf("delivery %q aliases, or follows, the caller's slice", d.read)
		}
	}

	if err := net.SetCorruption(0.3, 0.3); err != nil {
		t.Fatal(err)
	}
	var private, shorter int
	for i := 0; i < 50; i++ {
		net.SetReplayCapture(0)
		net.SetReplayCapture(1) // the tap holds the frame itself
		deliveries, _ := transmit(func(b []byte) { _ = net.Multicast(ids.ProcID(i%nodes), b) })
		frame := net.captured[0].f.b
		if !bytes.Equal(frame, want) {
			t.Fatalf("multicast %d: the frame was written to: %q", i, frame)
		}
		for _, d := range deliveries {
			switch {
			case len(d.read) == 0:
			case !sameArray(d.view, frame):
				private++ // only a corruption hit takes a copy
			case !bytes.Equal(d.read, want[:len(d.read)]):
				t.Fatalf("multicast %d: a delivery of the shared frame reads %q", i, d.read)
			}
			if len(d.read) < len(want) {
				shorter++
			}
		}
	}
	corrupted, truncated := total(m, obs.EvCorrupt), total(m, obs.EvTruncate)
	if corrupted == 0 || truncated == 0 || shorter == 0 {
		t.Errorf("corrupted %d, truncated %d (%d seen): a fault class never fired", corrupted, truncated, shorter)
	}
	if private == 0 || private > int(corrupted) {
		t.Errorf("%d deliveries had a buffer of their own for %d corruption hits", private, corrupted)
	}
}

// TestReentrantHandlerIsRecordSafe: event records are recycled, and a
// delivery's record is released before its handler runs. A handler that
// re-enters the network from inside delivery — sends, rebinds itself,
// crashes a peer — must not disturb any other delivery in flight: every
// other receiver still sees the bytes that were sent, from the right
// sender, round after round of record reuse.
func TestReentrantHandlerIsRecordSafe(t *testing.T) {
	const nodes = 5
	const rounds = 40
	sim, net := newNet(t, Ethernet10Mbit(nodes))
	message := func(round int) []byte {
		return bytes.Repeat([]byte{byte(round + 1)}, 32+round)
	}
	echo := []byte("echo")
	type seen struct{ msgs, echoes int }
	got := make([]seen, nodes)
	check := func(p ids.ProcID) Handler {
		return func(src ids.ProcID, b []byte) {
			switch {
			case bytes.Equal(b, echo):
				if src != 1 {
					t.Errorf("node %v: echo from %v, want 1", p, src)
				}
				got[p].echoes++
			case src == 0 && len(b) >= 32 && bytes.Equal(b, message(len(b)-32)):
				got[p].msgs++
			default:
				t.Errorf("node %v: damaged delivery from %v: % x", p, src, b)
			}
		}
	}
	var meddle Handler
	meddle = func(src ids.ProcID, b []byte) {
		check(1)(src, b)
		if src != 0 {
			return
		}
		round := len(b) - 32
		// Re-enter: these take records off the free list this delivery's
		// record went back to a moment ago.
		_ = net.Multicast(1, echo)
		_ = net.Unicast(1, 3, echo)
		if err := net.Bind(1, meddle); err != nil {
			t.Error(err)
		}
		if round == rounds/2 {
			net.Crash(4)
		}
	}
	for p := 0; p < nodes; p++ {
		h := check(ids.ProcID(p))
		if p == 1 {
			h = meddle
		}
		if err := net.Bind(ids.ProcID(p), h); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < rounds; r++ {
		_ = net.Multicast(0, message(r))
		sim.RunUntil(sim.Now() + 20*time.Millisecond)
	}
	drain(sim)
	for p, s := range got {
		wantMsgs, wantEchoes := rounds, rounds
		switch p {
		case 3:
			wantEchoes = 2 * rounds // the multicast and the unicast
		case 4:
			// Crashed from inside node 1's handler in round rounds/2. Its
			// own copy of that round had already arrived and was waiting
			// on its CPU, so it still runs; nothing later reaches it.
			wantMsgs, wantEchoes = rounds/2+1, rounds/2
		}
		if s.msgs != wantMsgs || s.echoes != wantEchoes {
			t.Errorf("node %d: %d messages and %d echoes intact, want %d and %d", p, s.msgs, s.echoes, wantMsgs, wantEchoes)
		}
	}
	if len(net.txFree) == 0 || len(net.rxFree) == 0 {
		t.Fatalf("free lists empty after a drained run: tx %d rx %d", len(net.txFree), len(net.rxFree))
	}
	for _, r := range net.txFree {
		if r.f.buf != nil {
			t.Error("a free transmission record still holds a payload")
		}
	}
	for _, r := range net.rxFree {
		if r.buf != nil || r.f != nil || r.h != nil {
			t.Error("a free delivery record still holds bytes, a frame or a handler")
		}
	}
}

// TestEgressQueueRing: the per-node egress queue is FIFO across growth
// and wrap-around, clears every slot it serves, and a crash empties it.
func TestEgressQueueRing(t *testing.T) {
	var q egressQueue
	recs := make([]*txRecord, 100)
	for i := range recs {
		recs[i] = &txRecord{}
	}
	next, served := 0, 0
	for step := 0; served < len(recs); step++ {
		// Push in bursts, pop a little less often, so the ring both
		// wraps and grows.
		for k := 0; k < 3 && next < len(recs); k++ {
			q.push(recs[next])
			next++
		}
		for k := 0; k < 2 && q.count > 0; k++ {
			if got := q.pop(); got != recs[served] {
				t.Fatalf("pop %d returned record out of order", served)
			}
			served++
		}
	}
	if q.count != 0 {
		t.Fatalf("queue reports %d frames after draining", q.count)
	}
	for i, r := range q.buf {
		if r != nil {
			t.Errorf("slot %d still references a served frame", i)
		}
	}
	if len(q.buf) > 64 {
		t.Errorf("ring grew to %d slots for a backlog that never passed 34", len(q.buf))
	}

	// A saturated sender's backlog is dropped wholesale by Crash, and the
	// medium carries on with the others.
	sim, net := newNet(t, Ethernet10Mbit(3))
	rcv := collect(t, sim, net, 2)
	big := make([]byte, 1400) // 1.2 ms on the wire against 0.4 ms of send CPU
	for i := 0; i < 20; i++ {
		_ = net.Unicast(0, 2, big)
	}
	sim.RunUntil(9 * time.Millisecond) // all twenty are past the send CPU, few past the wire
	if net.egress[0].count == 0 {
		t.Fatal("no backlog built up; the scenario is not testing the queue")
	}
	net.Crash(0)
	if net.egress[0].count != 0 || net.egress[0].buf != nil {
		t.Errorf("crashed node still queues %d frames", net.egress[0].count)
	}
	_ = net.Unicast(1, 2, []byte("alive"))
	drain(sim)
	if n := len(*rcv); n == 0 || string((*rcv)[n-1].b) != "alive" {
		t.Errorf("the medium stalled after the crash: %d deliveries", n)
	}
}

// BenchmarkMulticast is one frame through the whole model — send CPU,
// egress queue, wire, and both delivery legs at every receiver.
func BenchmarkMulticast(b *testing.B) {
	const nodes = 10
	sim := des.New(1)
	net, err := New(sim, Ethernet10Mbit(nodes))
	if err != nil {
		b.Fatal(err)
	}
	for p := 0; p < nodes; p++ {
		_ = net.Bind(ids.ProcID(p), func(ids.ProcID, []byte) {})
	}
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = net.Multicast(ids.ProcID(i%nodes), payload)
		drain(sim)
	}
}
