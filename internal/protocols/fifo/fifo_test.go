package fifo

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/protocols/ptest"
	"repro/internal/simnet"
)

func cluster(t *testing.T, seed int64, cfg simnet.Config, n int) *ptest.Cluster {
	t.Helper()
	c, err := ptest.New(seed, cfg, n, func(proto.Env) []proto.Layer {
		return []proto.Layer{New(Config{})}
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCastDeliversToAllInOrder(t *testing.T) {
	cfg := simnet.Config{Nodes: 4, PropDelay: time.Millisecond}
	c := cluster(t, 1, cfg, 4)
	for i := 0; i < 5; i++ {
		if err := c.Cast(0, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(time.Second)
	for p := 0; p < 4; p++ {
		got := c.Bodies(ids.ProcID(p))
		if len(got) != 5 {
			t.Fatalf("member %d delivered %d, want 5: %v", p, len(got), got)
		}
		for i, b := range got {
			if b != fmt.Sprintf("m%d", i) {
				t.Fatalf("member %d out of FIFO order: %v", p, got)
			}
		}
	}
}

func TestSenderHearsOwnCast(t *testing.T) {
	cfg := simnet.Config{Nodes: 2}
	c := cluster(t, 1, cfg, 2)
	if err := c.Cast(1, []byte("self")); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Second)
	if got := c.Bodies(1); len(got) != 1 || got[0] != "self" {
		t.Fatalf("sender's own delivery = %v", got)
	}
}

func TestUnicastSend(t *testing.T) {
	cfg := simnet.Config{Nodes: 3}
	c := cluster(t, 1, cfg, 3)
	for i := 0; i < 3; i++ {
		if err := c.Members[0].Stack.Send(2, []byte(fmt.Sprintf("u%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(time.Second)
	if got := c.Bodies(2); len(got) != 3 || got[0] != "u0" || got[2] != "u2" {
		t.Fatalf("unicast stream at p2 = %v", got)
	}
	if got := c.Bodies(1); len(got) != 0 {
		t.Fatalf("bystander received unicast: %v", got)
	}
}

func TestRecoveryFromLoss(t *testing.T) {
	cfg := simnet.Config{Nodes: 3, PropDelay: time.Millisecond}
	c, layers, _ := tappedCluster(t, 7, cfg, 3)
	if err := c.Net.SetFaults(0.3, 0, 0); err != nil {
		t.Fatal(err)
	}
	faults := obs.NewMetrics()
	c.Net.SetRecorder(faults)
	const n = 40
	for i := 0; i < n; i++ {
		if err := c.Cast(0, []byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(20 * time.Second)
	for p := 0; p < 3; p++ {
		got := c.Bodies(ids.ProcID(p))
		if len(got) != n {
			t.Fatalf("member %d delivered %d/%d under loss", p, len(got), n)
		}
		for i, b := range got {
			if b != fmt.Sprintf("m%03d", i) {
				t.Fatalf("member %d order violated at %d: %v", p, i, got[:i+1])
			}
		}
	}
	// Loss recovery must have actually exercised retransmission.
	var retx uint64
	for _, l := range layers {
		retx += l.Stats().Retransmits
	}
	if retx == 0 {
		t.Error("no retransmissions: loss recovery unexercised")
	}
	var dropped uint64
	for _, p := range faults.Procs() {
		dropped += faults.Count(p, obs.EvDrop)
	}
	if dropped == 0 {
		t.Error("test network dropped nothing; loss path unexercised")
	}
}

func TestRecoveryFromDuplication(t *testing.T) {
	cfg := simnet.Config{Nodes: 2}
	c := cluster(t, 3, cfg, 2)
	if err := c.Net.SetFaults(0, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := c.Cast(0, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(5 * time.Second)
	if got := c.Bodies(1); len(got) != n {
		t.Fatalf("delivered %d, want exactly %d (duplicates suppressed)", len(got), n)
	}
}

func TestRecoveryFromReordering(t *testing.T) {
	cfg := simnet.Config{Nodes: 2}
	c := cluster(t, 5, cfg, 2)
	if err := c.Net.SetFaults(0, 0, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 0; i < n; i++ {
		if err := c.Cast(0, []byte(fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(5 * time.Second)
	got := c.Bodies(1)
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	for i, b := range got {
		if b != fmt.Sprintf("m%02d", i) {
			t.Fatalf("order violated under jitter: %v", got)
		}
	}
}

func TestMultipleSimultaneousSenders(t *testing.T) {
	cfg := simnet.Config{Nodes: 3, PropDelay: time.Millisecond}
	c := cluster(t, 11, cfg, 3)
	if err := c.Net.SetFaults(0.2, 0, 0); err != nil {
		t.Fatal(err)
	}
	const per = 10
	for i := 0; i < per; i++ {
		for s := 0; s < 3; s++ {
			if err := c.Cast(ids.ProcID(s), []byte(fmt.Sprintf("s%d-%02d", s, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Run(20 * time.Second)
	for p := 0; p < 3; p++ {
		got := c.Bodies(ids.ProcID(p))
		if len(got) != 3*per {
			t.Fatalf("member %d delivered %d, want %d", p, len(got), 3*per)
		}
		// Per-sender FIFO must hold even though streams interleave.
		next := map[byte]int{}
		for _, b := range got {
			s := b[1]
			var idx int
			if _, err := fmt.Sscanf(b[3:], "%d", &idx); err != nil {
				t.Fatal(err)
			}
			if idx != next[s] {
				t.Fatalf("member %d: sender %c out of order: got %s want index %d", p, s, b, next[s])
			}
			next[s]++
		}
	}
}

func TestGarbageCollection(t *testing.T) {
	cfg := simnet.Config{Nodes: 2, PropDelay: time.Millisecond}
	var layers []*Layer
	c, err := ptest.New(1, cfg, 2, func(proto.Env) []proto.Layer {
		l := New(Config{})
		layers = append(layers, l)
		return []proto.Layer{l}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Cast(0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(2 * time.Second)
	sender := layers[0]
	if n := sender.castOut.n; n != 0 {
		t.Errorf("castOut retained %d packets after acks; GC failed", n)
	}
}

func TestHeartbeatRepairsTailLoss(t *testing.T) {
	// Drop the initial transmissions deterministically via Block, then
	// heal: only heartbeats can reveal the missing tail.
	cfg := simnet.Config{Nodes: 2, PropDelay: time.Millisecond}
	c := cluster(t, 1, cfg, 2)
	c.Net.Block(0, 1)
	if err := c.Cast(0, []byte("lost-tail")); err != nil {
		t.Fatal(err)
	}
	c.Run(10 * time.Millisecond) // transmission dropped
	c.Net.Unblock(0, 1)
	c.Run(time.Second)
	if got := c.Bodies(1); len(got) != 1 || got[0] != "lost-tail" {
		t.Fatalf("tail loss not repaired: %v", got)
	}
}

// ackTap is a pass-through layer under a fifo instance that counts the
// acks the instance sends, and runs received, if set, after each arrival
// it passes up.
type ackTap struct {
	proto.Down
	up       proto.Up
	acks     int
	received func()
}

func (t *ackTap) Init(_ proto.Env, down proto.Down, up proto.Up) error {
	t.Down, t.up = down, up
	return nil
}

func (t *ackTap) Send(dst ids.ProcID, pkt []byte) error {
	if len(pkt) > 0 && pkt[0] == kindAck {
		t.acks++
	}
	return t.Down.Send(dst, pkt)
}

func (t *ackTap) Recv(src ids.ProcID, pkt []byte) {
	t.up.Deliver(src, pkt)
	if t.received != nil {
		t.received()
	}
}

func (t *ackTap) Stop() {}

// tappedCluster builds an n-member cluster of fifo layers, each over an
// ackTap.
func tappedCluster(t *testing.T, seed int64, cfg simnet.Config, n int) (*ptest.Cluster, []*Layer, []*ackTap) {
	t.Helper()
	var layers []*Layer
	var taps []*ackTap
	c, err := ptest.New(seed, cfg, n, func(proto.Env) []proto.Layer {
		l, tap := New(Config{}), &ackTap{}
		layers, taps = append(layers, l), append(taps, tap)
		return []proto.Layer{l, tap}
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, layers, taps
}

// TestIdleStreamIsNotReacked: once a receiver has acked everything it
// holds, and the sender has stopped asking, it stays silent — one ack,
// not one per tick.
func TestIdleStreamIsNotReacked(t *testing.T) {
	cfg := simnet.Config{Nodes: 2, PropDelay: time.Millisecond}
	c, layers, taps := tappedCluster(t, 1, cfg, 2)
	if err := c.Cast(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Second)
	if got := c.Bodies(1); len(got) != 1 {
		t.Fatalf("receiver delivered %v", got)
	}
	if n := layers[0].castOut.n; n != 0 {
		t.Errorf("castOut retained %d packets", n)
	}
	// One ack per tick would be ~20 acks.
	if taps[1].acks > 2 {
		t.Errorf("receiver sent %d acks for one cast in 1 s, want at most 2", taps[1].acks)
	}
}

// TestHeartbeatSolicitsLostAck: the receiver's acks are lost, and after
// that its ack would say nothing new. The sender's heartbeats ask for it
// again, so the sender's buffer still drains once the link heals.
func TestHeartbeatSolicitsLostAck(t *testing.T) {
	cfg := simnet.Config{Nodes: 2, PropDelay: time.Millisecond}
	c, layers, taps := tappedCluster(t, 1, cfg, 2)
	c.Net.Block(1, 0)
	if err := c.Cast(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.Run(100 * time.Millisecond)
	if taps[1].acks == 0 || layers[0].castOut.n == 0 {
		t.Fatalf("set-up: %d acks sent, %d casts held; want acks lost and the cast held",
			taps[1].acks, layers[0].castOut.n)
	}
	c.Net.Unblock(1, 0)
	c.Run(time.Second)
	if n := layers[0].castOut.n; n != 0 {
		t.Errorf("castOut retained %d packets after the link healed; lost ack never re-sent", n)
	}
}

// twoStacks runs two fifo stacks side by side over one transport, as the
// switching layer runs one sub-stack per protocol. A leading channel byte
// picks the stack; casts from above go to stack 0.
type twoStacks struct {
	stacks [2]*proto.Stack
	taps   [2]*ackTap
}

// channelDown tags every frame of one stack with its channel byte.
type channelDown struct {
	ch   byte
	down proto.Down
}

func (d channelDown) Cast(pkt []byte) error {
	return d.down.Cast(append([]byte{d.ch}, pkt...))
}

func (d channelDown) Send(dst ids.ProcID, pkt []byte) error {
	return d.down.Send(dst, append([]byte{d.ch}, pkt...))
}

func (s *twoStacks) Init(env proto.Env, down proto.Down, up proto.Up) error {
	for i := range s.stacks {
		s.taps[i] = &ackTap{}
		st, err := proto.Build(env, up, channelDown{byte(i), down}, New(Config{}), s.taps[i])
		if err != nil {
			return err
		}
		s.stacks[i] = st
	}
	return nil
}

func (s *twoStacks) Cast(pkt []byte) error                 { return s.stacks[0].Cast(pkt) }
func (s *twoStacks) Send(dst ids.ProcID, pkt []byte) error { return s.stacks[0].Send(dst, pkt) }
func (s *twoStacks) Recv(src ids.ProcID, pkt []byte)       { s.stacks[pkt[0]].Recv(src, pkt[1:]) }

func (s *twoStacks) Stop() {
	for _, st := range s.stacks {
		st.Stop()
	}
}

// TestIdleStackSendsNoAcks: ten members, two stacks each. Every member
// casts once on both, then traffic runs on stack 0 only. After warm-up
// stack 0 keeps acking its traffic and the idle stack 1 sends nothing.
func TestIdleStackSendsNoAcks(t *testing.T) {
	const n = 10
	cfg := simnet.Config{Nodes: n, PropDelay: time.Millisecond}
	var pairs []*twoStacks
	c, err := ptest.New(1, cfg, n, func(proto.Env) []proto.Layer {
		s := &twoStacks{}
		pairs = append(pairs, s)
		return []proto.Layer{s}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range pairs {
		for _, st := range s.stacks {
			if err := st.Cast([]byte("warm-up")); err != nil {
				t.Fatal(err)
			}
		}
	}
	acks := func(stack int) (sum int) {
		for _, s := range pairs {
			sum += s.taps[stack].acks
		}
		return sum
	}
	var active, idle int
	for ms := 20; ms <= 2000; ms += 20 {
		if err := c.Cast(ids.ProcID(ms/20%n), []byte("x")); err != nil {
			t.Fatal(err)
		}
		c.Run(time.Duration(ms) * time.Millisecond)
		if ms == 500 {
			active, idle = acks(0), acks(1)
		}
	}
	if got := c.Bodies(3); len(got) != 2*n+100 {
		t.Fatalf("member 3 delivered %d, want %d", len(got), 2*n+100)
	}
	if acks(0) == active {
		t.Error("the active stack sent no acks after warm-up")
	}
	if got := acks(1) - idle; got != 0 {
		t.Errorf("the idle stack sent %d acks after warm-up, want 0", got)
	}
}

func TestStopCancelsTimers(t *testing.T) {
	cfg := simnet.Config{Nodes: 2}
	c := cluster(t, 1, cfg, 2)
	if err := c.Cast(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.Run(100 * time.Millisecond)
	c.Stop()
	// After Stop, the simulator must drain: no self-rearming timers.
	if err := c.Sim.Run(100000); err != nil {
		t.Errorf("timers kept rearming after Stop: %v", err)
	}
}

func TestRecvIgnoresGarbage(t *testing.T) {
	cfg := simnet.Config{Nodes: 2}
	c := cluster(t, 1, cfg, 2)
	// Inject junk straight into member 1's stack.
	c.Members[1].Stack.Recv(0, []byte{})
	c.Members[1].Stack.Recv(0, []byte{99, 1, 2})
	c.Members[1].Stack.Recv(0, []byte{kindCast}) // truncated seq
	c.Run(time.Second)
	if got := c.Bodies(1); len(got) != 0 {
		t.Errorf("garbage produced deliveries: %v", got)
	}
}

func TestInitNilWiring(t *testing.T) {
	l := New(Config{})
	if err := l.Init(nil, nil, nil); err == nil {
		t.Error("Init accepted nil wiring")
	}
}

func TestStatsCounters(t *testing.T) {
	cfg := simnet.Config{Nodes: 2, PropDelay: time.Millisecond}
	var layers []*Layer
	c, err := ptest.New(13, cfg, 2, func(proto.Env) []proto.Layer {
		l := New(Config{})
		layers = append(layers, l)
		return []proto.Layer{l}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Net.SetFaults(0.3, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := c.Cast(0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(10 * time.Second)
	if got := layers[0].Stats(); got.CastsSent != 30 {
		t.Errorf("CastsSent = %d, want 30", got.CastsSent)
	}
	totalRetx := layers[0].Stats().Retransmits + layers[1].Stats().Retransmits
	if totalRetx == 0 {
		t.Error("no retransmissions under 30% loss")
	}
}

// TestInOrderRecvAllocs: a data packet that arrives in order goes from
// Recv to the layer above without an allocation (and so without touching
// the reorder map).
func TestInOrderRecvAllocs(t *testing.T) {
	l := New(Config{})
	delivered := 0
	up := proto.UpFunc(func(ids.ProcID, []byte) { delivered++ })
	if err := l.Init(ptest.NewFakeEnv(0, 3), &ptest.RecordDown{}, up); err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	got := testing.AllocsPerRun(1000, func() {
		l.Recv(1, encodeData(kindCast, seq, []byte("hello")))
		seq++
	})
	// encodeData's own buffer is the one allocation.
	if got != 1 || delivered != 1001 {
		t.Errorf("an in-order Recv allocates %v beside its packet (delivered %d), want 0", got-1, delivered)
	}
}

// TestRetransmitRing: the ring returns every held packet by seq across
// growth and wrap-around, nothing outside [base, next), and a released
// packet's slot no longer references it.
func TestRetransmitRing(t *testing.T) {
	var r retransmitRing
	pkt := func(seq uint64) []byte { return []byte(fmt.Sprint(seq)) }
	released := uint64(0)
	for seq := uint64(0); seq < 100; seq++ {
		if r.next() != seq {
			t.Fatalf("next seq = %d, want %d", r.next(), seq)
		}
		r.add(pkt(seq))
		if seq%7 == 6 {
			released = seq - 3
			r.release(released)
		}
		for s := uint64(0); s <= seq+1; s++ {
			got := r.get(s)
			if held := s >= released && s <= seq; held != (got != nil) || held && string(got) != string(pkt(s)) {
				t.Fatalf("after add %d, release below %d: get(%d) = %q", seq, released, s, got)
			}
		}
	}
	if len(r.buf)&(len(r.buf)-1) != 0 {
		t.Errorf("ring length %d is not a power of two", len(r.buf))
	}
	r.release(r.next() + 5) // an ack past the stream's end frees what is held
	if r.n != 0 || r.next() != 100 {
		t.Fatalf("after releasing all: %d held, next %d; want 0, 100", r.n, r.next())
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still holds %q after every packet was released", i, p)
		}
	}
}

// TestAckedPacketsAreNotRetained: once every packet is acked, no slot of
// the multicast ring or of any unicast ring still references one.
func TestAckedPacketsAreNotRetained(t *testing.T) {
	cfg := simnet.Config{Nodes: 3, PropDelay: time.Millisecond}
	c, layers, _ := tappedCluster(t, 1, cfg, 3)
	for i := 0; i < 20; i++ {
		if err := c.Cast(0, []byte("c")); err != nil {
			t.Fatal(err)
		}
		if err := c.Members[0].Stack.Send(ids.ProcID(1+i%2), []byte("s")); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(time.Second)
	sender := layers[0]
	rings := map[string]*retransmitRing{"castOut": &sender.castOut}
	for p := range sender.peers {
		rings[fmt.Sprintf("sendOut[%d]", p)] = &sender.peers[p].sendOut
	}
	for name, r := range rings {
		if r.n != 0 {
			t.Errorf("%s holds %d packets after the acks", name, r.n)
		}
		for i, p := range r.buf {
			if p != nil {
				t.Errorf("%s slot %d still references a released packet", name, i)
			}
		}
	}
	if len(sender.castOut.buf) == 0 || len(sender.peers[1].sendOut.buf) == 0 {
		t.Error("set-up: the rings never held a packet")
	}
}

// TestNonMemberSource: a packet from outside the peer table is counted as
// malformed and creates no state; a send to a non-member is an error.
func TestNonMemberSource(t *testing.T) {
	l := New(Config{})
	up := &ptest.RecordUp{}
	down := &ptest.RecordDown{}
	if err := l.Init(ptest.NewFakeEnv(0, 3), down, up); err != nil {
		t.Fatal(err)
	}
	for _, src := range []ids.ProcID{3, 99, ids.Nobody} {
		l.Recv(src, encodeData(kindCast, 0, []byte("x")))
		l.Recv(src, []byte{kindHeartbeat, kindCast, 5})
	}
	if got := l.MalformedDropped(); got != 6 {
		t.Errorf("MalformedDropped = %d, want 6", got)
	}
	if len(up.Deliveries) != 0 || len(down.Casts)+len(down.Sends) != 0 {
		t.Errorf("non-member packets produced %d deliveries and %d frames",
			len(up.Deliveries), len(down.Casts)+len(down.Sends))
	}
	if len(l.peers) != 3 {
		t.Fatalf("peer table grew to %d entries", len(l.peers))
	}
	for p := range l.peers {
		var fresh peer // as Init leaves it
		fresh.castIn.SetKeeper(proto.SpareKeeper{Spare: &l.spare})
		fresh.sendIn.SetKeeper(proto.SpareKeeper{Spare: &l.spare})
		if !reflect.DeepEqual(l.peers[p], fresh) {
			t.Errorf("peer %d has state after non-member traffic: %+v", p, l.peers[p])
		}
	}
	if err := l.Send(3, []byte("x")); err == nil {
		t.Error("Send to a non-member succeeded")
	}
}

// idleLayer returns member 0 of a 10-member group after it has received
// one cast from every peer and acked it: every stream is in order and
// every ack is up to date.
func idleLayer(tb testing.TB) (*Layer, *ptest.RecordDown) {
	tb.Helper()
	l := New(Config{})
	down := &ptest.RecordDown{}
	if err := l.Init(ptest.NewFakeEnv(0, 10), down, proto.UpFunc(func(ids.ProcID, []byte) {})); err != nil {
		tb.Fatal(err)
	}
	for p := ids.ProcID(1); p < 10; p++ {
		l.Recv(p, encodeData(kindCast, 0, []byte("x")))
	}
	l.ackTick()
	if len(down.Sends) != 9 {
		tb.Fatalf("set-up: the first ack tick sent %d acks, want 9", len(down.Sends))
	}
	return l, down
}

// TestIdleTickAllocs: on an idle 10-member layer the resend, ack and
// heartbeat ticks send nothing and allocate nothing.
func TestIdleTickAllocs(t *testing.T) {
	l, down := idleLayer(t)
	sent := len(down.Casts) + len(down.Sends)
	if n := testing.AllocsPerRun(1000, func() {
		l.resendTick()
		l.ackTick()
		l.heartbeatTick()
	}); n != 0 {
		t.Errorf("idle ticks allocate %v per run, want 0", n)
	}
	if got := len(down.Casts) + len(down.Sends); got != sent {
		t.Errorf("idle ticks sent %d frames", got-sent)
	}
}

// BenchmarkIdleTicks is one firing of each periodic tick on an idle
// 10-member layer.
func BenchmarkIdleTicks(b *testing.B) {
	l, _ := idleLayer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.resendTick()
		l.ackTick()
		l.heartbeatTick()
	}
}

// BenchmarkInOrderRecv is one in-order data packet, from Recv to the
// layer above, with the sender rotating over nine peers.
func BenchmarkInOrderRecv(b *testing.B) {
	l := New(Config{})
	if err := l.Init(ptest.NewFakeEnv(0, 10), &ptest.RecordDown{}, proto.UpFunc(func(ids.ProcID, []byte) {})); err != nil {
		b.Fatal(err)
	}
	var pkt []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The layer delivers an in-order packet at once and keeps none of
		// it, so one buffer serves every iteration.
		pkt = append(binary.AppendUvarint(append(pkt[:0], kindCast), uint64(i/9)), "hello"...)
		l.Recv(ids.ProcID(1+i%9), pkt)
	}
}

// nackLog records the seqs of the NACKs sent through it.
type nackLog struct{ seqs []uint64 }

func (d *nackLog) Cast([]byte) error { return nil }

func (d *nackLog) Send(_ ids.ProcID, pkt []byte) error {
	if pkt[0] == kindNack {
		seq, _ := binary.Uvarint(pkt[2:])
		d.seqs = append(d.seqs, seq)
	}
	return nil
}

// TestGapRepairAllocs: gap repair walks a stream's gaps in place — a
// resend tick over a stream with holes allocates nothing — and asks for
// the missing seqs in ascending order.
func TestGapRepairAllocs(t *testing.T) {
	if ptest.RaceEnabled {
		t.Skip("the race detector makes the pooled NACK encoders allocate")
	}
	l := New(Config{})
	down := &nackLog{}
	if err := l.Init(ptest.NewFakeEnv(0, 3), down, proto.UpFunc(func(ids.ProcID, []byte) {})); err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint64{0, 2, 5} {
		l.Recv(1, encodeData(kindCast, seq, []byte("x")))
	}
	got := testing.AllocsPerRun(1000, func() {
		down.seqs = down.seqs[:0]
		l.resendTick()
	})
	if got != 0 {
		t.Errorf("a resend tick over three gaps allocates %v, want 0", got)
	}
	if want := []uint64{1, 3, 4}; !reflect.DeepEqual(down.seqs, want) {
		t.Errorf("the tick NACKed %v, want %v", down.seqs, want)
	}
}
