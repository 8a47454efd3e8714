package switching

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Unit tests for the egress batcher: coalescing, the control/heartbeat
// bypass, the epoch-flush rule (a flush never straddles a key roll),
// and the all-or-nothing receive-side unpack. These drive the batcher
// directly with a minimal environment so the batch boundaries are
// observable frame by frame.

// fakeTimer re-queues its callback on Reset, as a re-armed timer would.
type fakeTimer struct {
	env *fakeEnv
	fn  func()
}

func (fakeTimer) Stop() bool            { return false }
func (fakeTimer) Active() bool          { return false }
func (t fakeTimer) Reset(time.Duration) { t.env.q = append(t.env.q, t.fn) }

// fakeEnv queues After callbacks and runs them on demand — the unit
// stand-in for the DES's deterministic same-timestamp FIFO.
type fakeEnv struct {
	self ids.ProcID
	ring *ids.Ring
	q    []func()
}

func newFakeEnv(self ids.ProcID, n int) *fakeEnv {
	members := make([]ids.ProcID, n)
	for i := range members {
		members[i] = ids.ProcID(i)
	}
	ring, err := ids.NewRing(members)
	if err != nil {
		panic(err)
	}
	return &fakeEnv{self: self, ring: ring}
}

func (f *fakeEnv) Self() ids.ProcID      { return f.self }
func (f *fakeEnv) Members() []ids.ProcID { return f.ring.Members() }
func (f *fakeEnv) Ring() *ids.Ring       { return f.ring }
func (f *fakeEnv) Now() time.Duration    { return 0 }
func (f *fakeEnv) Rand() *rand.Rand      { return rand.New(rand.NewSource(1)) }
func (f *fakeEnv) After(d time.Duration, fn func()) proto.Timer {
	f.q = append(f.q, fn)
	return fakeTimer{env: f, fn: fn}
}
func (f *fakeEnv) run() {
	for i := 0; i < len(f.q); i++ { // callbacks may queue more
		f.q[i]()
	}
	f.q = f.q[:0]
}

// captureDown records every transport write, copying (the batcher hands
// out pooled buffers, exactly like a real transport sees them).
type captureDown struct {
	casts [][]byte
	sends []capturedSend
}

type capturedSend struct {
	dst ids.ProcID
	pkt []byte
}

func (c *captureDown) Cast(p []byte) error {
	c.casts = append(c.casts, append([]byte(nil), p...))
	return nil
}

func (c *captureDown) Send(dst ids.ProcID, p []byte) error {
	c.sends = append(c.sends, capturedSend{dst, append([]byte(nil), p...)})
	return nil
}

// muxFrame builds a mux frame for a channel with the given body.
func muxFrame(ch ids.ChannelID, body string) []byte {
	e := wire.NewEncoder(4 + len(body))
	e.Channel(ch)
	return e.Frame([]byte(body))
}

// unpackBatch decodes a batch frame into its inner mux frames.
func unpackBatch(t *testing.T, pkt []byte) [][]byte {
	t.Helper()
	if !isBatchFrame(pkt) {
		t.Fatalf("not a batch frame: %x", pkt)
	}
	d := wire.NewDecoder(pkt[1:])
	count := d.Uvarint()
	var out [][]byte
	for i := uint64(0); i < count; i++ {
		out = append(out, d.BytesField())
	}
	if d.Err() != nil || len(d.Remaining()) != 0 {
		t.Fatalf("bad batch structure: %x (err %v)", pkt, d.Err())
	}
	return out
}

func newTestBatcher(env *fakeEnv, down proto.Down, max int) (*Switch, *batcher) {
	s := &Switch{env: env, obs: obs.OrNop(nil)}
	b := newBatcher(s, down, max)
	s.batch = b
	return s, b
}

func TestBatcherCoalesce(t *testing.T) {
	env := newFakeEnv(0, 3)
	cap := &captureDown{}
	_, b := newTestBatcher(env, cap, 8)
	ch := ids.ProtocolChannel(0)

	f1, f2 := muxFrame(ch, "one"), muxFrame(ch, "two")
	f3 := muxFrame(ch, "to-1")
	_ = b.Cast(f1)
	_ = b.Cast(f2)
	_ = b.Send(1, f3)
	if len(cap.casts) != 0 || len(cap.sends) != 0 {
		t.Fatal("frames escaped before the flush point")
	}
	env.run()

	if len(cap.casts) != 1 || len(cap.sends) != 1 {
		t.Fatalf("got %d casts and %d sends, want 1 each", len(cap.casts), len(cap.sends))
	}
	got := unpackBatch(t, cap.casts[0])
	if len(got) != 2 || !bytes.Equal(got[0], f1) || !bytes.Equal(got[1], f2) {
		t.Fatalf("cast batch mismatch: %q", got)
	}
	gotS := unpackBatch(t, cap.sends[0].pkt)
	if cap.sends[0].dst != 1 || len(gotS) != 1 || !bytes.Equal(gotS[0], f3) {
		t.Fatalf("send batch mismatch: dst %d frames %q", cap.sends[0].dst, gotS)
	}

	// A second accumulation reuses the same buffers and flushes again.
	_ = b.Cast(f1)
	env.run()
	if len(cap.casts) != 2 {
		t.Fatalf("second flush missing: %d casts", len(cap.casts))
	}
	if got := unpackBatch(t, cap.casts[1]); len(got) != 1 || !bytes.Equal(got[0], f1) {
		t.Fatalf("second batch mismatch: %q", got)
	}
}

func TestBatcherFullAccumulatorFlushesEarly(t *testing.T) {
	env := newFakeEnv(0, 3)
	cap := &captureDown{}
	_, b := newTestBatcher(env, cap, 2)
	ch := ids.ProtocolChannel(0)
	_ = b.Cast(muxFrame(ch, "a"))
	_ = b.Cast(muxFrame(ch, "b")) // hits BatchMax: immediate flush
	if len(cap.casts) != 1 {
		t.Fatalf("full accumulator did not flush: %d casts", len(cap.casts))
	}
	if got := unpackBatch(t, cap.casts[0]); len(got) != 2 {
		t.Fatalf("want 2 frames in the early flush, got %d", len(got))
	}
	env.run() // the armed timer finds nothing pending
	if len(cap.casts) != 1 {
		t.Fatal("empty flush emitted a frame")
	}
}

func TestBatcherBypassesControlAndHeartbeats(t *testing.T) {
	env := newFakeEnv(0, 3)
	cap := &captureDown{}
	_, b := newTestBatcher(env, cap, 8)

	token := muxFrame(ids.ControlChannel, "token")
	hb := muxFrame(detectorChannel, "heartbeat")
	_ = b.Send(1, token)
	_ = b.Cast(hb)

	// Both passed straight through, unbatched, in legacy bytes.
	if len(cap.sends) != 1 || !bytes.Equal(cap.sends[0].pkt, token) {
		t.Fatalf("control frame was not passed through verbatim: %+v", cap.sends)
	}
	if len(cap.casts) != 1 || !bytes.Equal(cap.casts[0], hb) {
		t.Fatalf("heartbeat was not passed through verbatim: %q", cap.casts)
	}
	env.run()
	if len(cap.casts) != 1 || len(cap.sends) != 1 {
		t.Fatal("bypass frames were also batched")
	}
}

// TestBatcherEpochFlushRule pins the rule that a batch never straddles
// a key roll: the flush that setSendEpoch (and the maxAuthEpoch
// advance) performs before mutating the sealing epoch must emit the
// pending frames as their own wire write, so frames accumulated before
// the roll cannot coalesce with frames accumulated after it.
func TestBatcherEpochFlushRule(t *testing.T) {
	env := newFakeEnv(0, 3)
	cap := &captureDown{}
	_, b := newTestBatcher(env, cap, 8)
	ch := ids.ProtocolChannel(0)

	pre1, pre2 := muxFrame(ch, "old-epoch-1"), muxFrame(ch, "old-epoch-2")
	post := muxFrame(ch, "new-epoch")
	_ = b.Cast(pre1)
	_ = b.Cast(pre2)
	b.flush() // what the key-roll sites do before changing the epoch
	_ = b.Cast(post)
	env.run()

	if len(cap.casts) != 2 {
		t.Fatalf("got %d wire writes, want 2 (pre-roll batch, post-roll batch)", len(cap.casts))
	}
	gotPre := unpackBatch(t, cap.casts[0])
	if len(gotPre) != 2 || !bytes.Equal(gotPre[0], pre1) || !bytes.Equal(gotPre[1], pre2) {
		t.Fatalf("pre-roll batch mismatch: %q", gotPre)
	}
	gotPost := unpackBatch(t, cap.casts[1])
	if len(gotPost) != 1 || !bytes.Equal(gotPost[0], post) {
		t.Fatalf("post-roll batch mismatch: %q", gotPost)
	}
}

// recvHarness builds a Switch wired just enough to exercise recvBatch:
// a multiplex with one bound channel recording deliveries.
func recvHarness(t *testing.T) (*Switch, *[][]byte) {
	t.Helper()
	env := newFakeEnv(0, 3)
	mux, err := NewMultiplex(&captureDown{})
	if err != nil {
		t.Fatal(err)
	}
	var delivered [][]byte
	ch := ids.ProtocolChannel(0)
	mux.Bind(ch, proto.UpFunc(func(src ids.ProcID, payload []byte) {
		delivered = append(delivered, append([]byte(nil), payload...))
	}))
	s := &Switch{env: env, obs: obs.OrNop(nil), mux: mux}
	s.batch = newBatcher(s, &captureDown{}, 8)
	return s, &delivered
}

func TestRecvBatchRoundTrip(t *testing.T) {
	s, delivered := recvHarness(t)
	ch := ids.ProtocolChannel(0)

	var acc batchAcc
	acc.add(muxFrame(ch, "alpha"))
	acc.add(muxFrame(ch, "beta"))
	acc.add(muxFrame(ch, "gamma"))
	pkt := appendBatch(nil, &acc)

	s.Recv(1, pkt)
	if len(*delivered) != 3 {
		t.Fatalf("delivered %d inner frames, want 3", len(*delivered))
	}
	for i, want := range []string{"alpha", "beta", "gamma"} {
		if string((*delivered)[i]) != want {
			t.Fatalf("inner frame %d = %q, want %q", i, (*delivered)[i], want)
		}
	}
	if s.stats.MalformedDropped != 0 {
		t.Fatalf("well-formed batch counted %d malformed", s.stats.MalformedDropped)
	}
}

// TestRecvBatchAllOrNothing pins the defensive contract: a batch with a
// corrupt structure delivers none of its frames — even those before the
// corruption — and counts exactly one malformed drop.
func TestRecvBatchAllOrNothing(t *testing.T) {
	ch := ids.ProtocolChannel(0)
	var acc batchAcc
	acc.add(muxFrame(ch, "good"))
	acc.add(muxFrame(ch, "also-good"))
	good := appendBatch(nil, &acc)

	cases := []struct {
		name string
		pkt  []byte
	}{
		{"truncated tail", good[:len(good)-2]},
		{"count overrun", func() []byte {
			p := append([]byte(nil), good...)
			p[1] = 200 // claims 200 entries
			return p
		}()},
		{"zero count", []byte{batchMagic, 0}},
		{"empty body", []byte{batchMagic}},
		{"trailing garbage", append(append([]byte(nil), good...), 0xFF)},
	}
	for _, tc := range cases {
		s, delivered := recvHarness(t)
		s.Recv(1, tc.pkt)
		if len(*delivered) != 0 {
			t.Errorf("%s: delivered %d frames from a corrupt batch, want 0", tc.name, len(*delivered))
		}
		if s.stats.MalformedDropped != 1 {
			t.Errorf("%s: counted %d malformed drops, want 1", tc.name, s.stats.MalformedDropped)
		}
	}
}

// TestBatchRecvAllocs: an authenticated 8-frame batch goes from
// Switch.Recv through the overload ingress queue to the demultiplexed
// channel as views of the one verified frame — no copy of the batch
// body, nothing allocated in steady state.
func TestBatchRecvAllocs(t *testing.T) {
	env := newFakeEnv(0, 3)
	mux, err := NewMultiplex(&captureDown{})
	if err != nil {
		t.Fatal(err)
	}
	ch := ids.ProtocolChannel(0)
	delivered := 0
	mux.Bind(ch, proto.UpFunc(func(ids.ProcID, []byte) { delivered++ }))
	s := &Switch{env: env, obs: obs.OrNop(nil), mux: mux, ring: env.Ring(), cfg: Config{
		Defense: &DefenseConfig{QuarantineThreshold: 8, Auth: &AuthConfig{SessionKey: []byte("alloc gate")}},
	}}
	s.batch = newBatcher(s, &captureDown{}, 8)
	s.ovl = newOverload(s, OverloadConfig{
		IngressQueueCap: 16, EgressQueueCap: 16, ServiceInterval: time.Millisecond, BatchMax: 8,
	})
	var acc batchAcc
	for i := 0; i < 8; i++ {
		acc.add(muxFrame(ch, "payload"))
	}
	pkt := s.epochSealer(0).SealTo(nil, appendBatch(nil, &acc))

	got := testing.AllocsPerRun(1000, func() {
		s.Recv(1, pkt)
		env.run() // the service tick drains all eight
	})
	if a := s.ovl.accounting(); got != 0 || delivered != 8*1001 || a.IngressServed != 8*1001 || s.stats.AuthFailed != 0 {
		t.Errorf("a batch of 8 allocates %v (delivered %d, ledger %+v, auth failed %d), want 0 and all served",
			got, delivered, a, s.stats.AuthFailed)
	}
}
