package simnet

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ids"
)

func drain(sim *des.Sim) {
	for sim.Step() {
	}
}

// TestMulticastAllocs: a multicast to N bound receivers allocates the N
// receiver-owned payload buffers (the sender's snapshot, which the last
// receiver inherits, and a copy for each of the others) and nothing else
// — no closure, timer or record per frame or per delivery. The model is
// the paper's Ethernet, so both event legs of a delivery (arrival, then
// the CPU-queued handler) are on the path.
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
	for i := 0; i < 10; i++ { // fill the free lists, grow the rings and the heap
		round()
	}
	delivered = 0
	got := testing.AllocsPerRun(200, round)
	if want := float64(3 * nodes); got > want {
		t.Errorf("3 multicasts to %d receivers allocate %v, want at most %v (one buffer per receiver)", nodes, got, want)
	}
	if delivered != 201*3*nodes {
		t.Errorf("delivered %d, want %d", delivered, 201*3*nodes)
	}
}

// TestUnicastAllocs: a unicast is copied once — the snapshot the one
// receiver ends up owning.
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
	if got := testing.AllocsPerRun(200, round); got > 2 {
		t.Errorf("two unicasts allocate %v, want at most 2", got)
	}
}

// TestReceiversOwnTheirBytes: whichever delivery inherits the
// transmission's buffer, no two deliveries share one and none aliases the
// sender's slice — with duplication on, so a frame fans out to more
// deliveries than receivers.
func TestReceiversOwnTheirBytes(t *testing.T) {
	const nodes = 5
	cfg := Ethernet10Mbit(nodes)
	cfg.DupProb = 0.4
	sim, net := newNet(t, cfg)
	want := []byte("the quick brown fox jumps over the lazy dog")
	deliveries := 0
	for p := 0; p < nodes; p++ {
		if err := net.Bind(ids.ProcID(p), func(_ ids.ProcID, b []byte) {
			if !bytes.Equal(b, want) {
				t.Errorf("delivery %d carries %q", deliveries, b)
			}
			deliveries++
			for i := range b { // a receiver may do what it likes with its bytes
				b[i] = 0xFF
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	sent := append([]byte(nil), want...)
	for i := 0; i < 50; i++ {
		_ = net.Multicast(ids.ProcID(i%nodes), sent)
		_ = net.Unicast(ids.ProcID(i%nodes), ids.ProcID((i+1)%nodes), sent)
		_ = net.Inject(0, ids.ProcID(i%nodes), sent) // caller keeps ownership of sent
	}
	drain(sim)
	if !bytes.Equal(sent, want) {
		t.Errorf("the sender's slice was written through: %q", sent)
	}
	if st := net.Stats(); st.Duplicated == 0 || deliveries != 50*(nodes+2)+int(st.Duplicated) {
		t.Errorf("deliveries = %d with %d duplicates, want %d", deliveries, st.Duplicated, 50*(nodes+2)+int(st.Duplicated))
	}
}

// TestReentrantHandlerIsRecordSafe: event records are recycled, and a
// delivery's record is released before its handler runs. A handler that
// re-enters the network from inside delivery — sends, scribbles over its
// bytes, rebinds itself, crashes a peer — must not disturb any other
// delivery in flight: every other receiver still sees the bytes that
// were sent, from the right sender, round after round of record reuse.
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
		for i := range b {
			b[i] = 0
		}
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
		if r.f.payload != nil {
			t.Error("a free transmission record still holds a payload")
		}
	}
	for _, r := range net.rxFree {
		if r.buf != nil || r.h != nil {
			t.Error("a free delivery record still holds bytes or a handler")
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
