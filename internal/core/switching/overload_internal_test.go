package switching

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
)

// lastCast keeps a copy of the latest cast sent through it, in one
// reused buffer: a Down that copies what it keeps.
type lastCast struct {
	frame []byte
	casts int
}

func (d *lastCast) Cast(p []byte) error {
	d.frame = append(d.frame[:0], p...)
	d.casts++
	return nil
}

func (d *lastCast) Send(ids.ProcID, []byte) error { return nil }

// TestEgressAdmitDrainAllocs: once warm, admitting casts to the egress
// queue and draining them to the protocol on the service tick allocates
// nothing — a drained cast's frame carries the next admitted one — and
// the protocol sees each cast's epoch frame.
func TestEgressAdmitDrainAllocs(t *testing.T) {
	env := newFakeEnv(0, 3)
	down := &lastCast{}
	stack, err := proto.Build(env, proto.UpFunc(func(ids.ProcID, []byte) {}), down)
	if err != nil {
		t.Fatal(err)
	}
	s := &Switch{env: env, obs: obs.OrNop(nil), ring: env.Ring(), protos: []*proto.Stack{stack},
		sent: map[uint64]uint64{}, sendEpoch: 2}
	s.ovl = newOverload(s, OverloadConfig{EgressQueueCap: 16, ServiceInterval: time.Millisecond, BatchMax: 4})
	payloads := [][]byte{[]byte("one"), []byte("a second, longer one"), []byte("three")}
	got := testing.AllocsPerRun(1000, func() {
		for _, p := range payloads {
			if err := s.ovl.admitCast(p); err != nil {
				t.Fatal(err)
			}
		}
		env.run() // the service tick drains all three
	})
	if got != 0 {
		t.Errorf("a warm admit+drain allocates %v, want 0", got)
	}
	a := s.ovl.accounting()
	if a.EgressSent != 3*1001 || a.EgressQueued != 0 || down.casts != 3*1001 {
		t.Errorf("ledger %+v, %d casts reached the protocol; want all %d sent", a, down.casts, 3*1001)
	}
	if want := append(binary.AppendUvarint(nil, 2), "three"...); string(down.frame) != string(want) {
		t.Errorf("the last frame drained reads %q, want %q", down.frame, want)
	}
}

// TestIngressServiceOrder pins the ingress service order to the
// reference rotation: each tick serves up to BatchMax frames, each one
// from the first non-empty queue at or after the ring position past the
// last one served, wrapping around the ring. The arrivals are uneven
// (some peers send runs, one sends nothing), a second wave lands while
// the cursor is past the ring's middle, so the scan wraps, and every
// frame must come out in exactly the reference's order, tick by tick.
func TestIngressServiceOrder(t *testing.T) {
	const n, batchMax = 5, 3
	env := newFakeEnv(0, n)
	mux, err := NewMultiplex(&captureDown{})
	if err != nil {
		t.Fatal(err)
	}
	ch := ids.ProtocolChannel(1)
	var got []string
	mux.Bind(ch, proto.UpFunc(func(src ids.ProcID, p []byte) { got = append(got, src.String()+":"+string(p)) }))
	s := &Switch{env: env, obs: obs.OrNop(nil), mux: mux, ring: env.Ring()}
	s.ovl = newOverload(s, OverloadConfig{IngressQueueCap: 64, EgressQueueCap: 16, ServiceInterval: time.Millisecond, BatchMax: batchMax})

	// ref is the rotation written out longhand: queues per peer, and a
	// scan counter that only ever grows and is reduced mod n.
	ref := make([][]string, n)
	refIdx := 0
	var want []string
	refTick := func() {
		for k := 0; k < batchMax; k++ {
			served := false
			for range n {
				p := refIdx % n
				refIdx++
				if len(ref[p]) > 0 {
					want = append(want, ref[p][0])
					ref[p] = ref[p][1:]
					served = true
					break
				}
			}
			if !served {
				return
			}
		}
	}
	seq := 0
	arrive := func(counts ...int) {
		for p, c := range counts {
			for range c {
				body := string(rune('a' + seq%26))
				seq++
				if !s.ovl.admitIngress(ids.ProcID(p), muxFrame(ch, body)) {
					t.Fatal("data frame not admitted")
				}
				ref[p] = append(ref[p], ids.ProcID(p).String()+":"+body)
			}
		}
	}
	tick := func() {
		fn := env.q[0]
		env.q = env.q[1:]
		fn()
		refTick()
		if len(got) != len(want) {
			t.Fatalf("after %d frames served, the reference served %d:\n got %v\nwant %v", len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("frame %d served %s, the reference serves %s:\n got %v\nwant %v", i, got[i], want[i], got, want)
			}
		}
	}

	arrive(1, 4, 0, 2, 1)
	tick() // p0 p1 p3
	tick() // p4 p1 p3
	arrive(0, 0, 3, 0, 2)
	for len(env.q) > 0 {
		tick()
	}
	if len(got) != seq {
		t.Fatalf("served %d of %d admitted frames", len(got), seq)
	}
	if a := s.ovl.accounting(); a.IngressServed != uint64(seq) || a.IngressQueued != 0 {
		t.Errorf("ledger after draining: %+v", a)
	}
}
