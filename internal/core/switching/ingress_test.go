package switching_test

// This file and forged_test.go are the cross-layer adversarial-ingress
// regression suite: every protocol layer and the switching stack must
// survive arbitrary bytes on their Recv paths — no panics, no state
// corruption — counting what they reject instead. This is the
// non-fuzzing companion to internal/wire's fuzz targets: a fixed seeded
// corpus of 1000 random byte strings replayed on every layer, so the
// guarantee is pinned in the ordinary test suite (and under -race),
// not only when a fuzzer happens to run.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core/switching"
	"repro/internal/core/switching/swtest"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/protocols/arq"
	"repro/internal/protocols/causal"
	"repro/internal/protocols/fifo"
	"repro/internal/protocols/ptest"
	"repro/internal/protocols/seqorder"
	"repro/internal/protocols/tokenorder"
	"repro/internal/protocols/vsync"
	"repro/internal/simnet"
)

// inputs is the shared adversarial corpus: count random byte strings
// (lengths 0..63) from a fixed seed, so a failure is replayable.
func inputs(seed int64, count int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, count)
	for i := range out {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		out[i] = b
	}
	return out
}

// malformedCounter is the defensive-ingress accessor every hardened
// layer exposes.
type malformedCounter interface {
	MalformedDropped() uint64
}

// TestLayerIngressSurvivesRandomBytes feeds 1000 seeded random byte
// strings into every protocol layer's Recv, from rotating sources. The
// layer must not panic, and must account for rejected input in its
// MalformedDropped counter (random bytes occasionally parse as valid
// small frames, so the counter need not equal the corpus size — it
// must only be nonzero, proving the defensive path engaged).
func TestLayerIngressSurvivesRandomBytes(t *testing.T) {
	const group = 4
	layers := []struct {
		name string
		make func() proto.Layer
	}{
		{"fifo", func() proto.Layer { return fifo.New(fifo.Config{}) }},
		{"seqorder", func() proto.Layer { return seqorder.New(0) }},
		{"tokenorder", func() proto.Layer { return tokenorder.New(tokenorder.Config{HoldDelay: time.Millisecond}) }},
		{"vsync", func() proto.Layer { return vsync.New() }},
		{"arq/stopwait", func() proto.Layer { return arq.NewStopAndWait(0) }},
		{"arq/gobackn", func() proto.Layer { return arq.NewGoBackN(0, 0) }},
		{"causal", func() proto.Layer { return causal.New() }},
	}
	corpus := inputs(42, 1000)
	for _, tc := range layers {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.make()
			env := ptest.NewFakeEnv(0, group)
			down, up := &ptest.RecordDown{}, &ptest.RecordUp{}
			if err := l.Init(env, down, up); err != nil {
				t.Fatal(err)
			}
			for i, pkt := range corpus {
				l.Recv(ids.ProcID(1+i%(group-1)), pkt)
			}
			mc, ok := l.(malformedCounter)
			if !ok {
				t.Fatalf("%T does not expose MalformedDropped()", l)
			}
			if mc.MalformedDropped() == 0 {
				t.Errorf("%s: 1000 random packets, none counted malformed", tc.name)
			}
			l.Stop()
		})
	}
}

// TestSwitchIngressSurvivesRandomBytes replays the same corpus against
// both shipped stacks. On either the cluster must not panic and must
// keep operating (the token keeps rotating after the garbage). On
// Hardened every random packet fails the authenticated envelope, so the
// auth-rejection counter must account for the entire corpus and the
// flood must cross the quarantine threshold.
func TestSwitchIngressSurvivesRandomBytes(t *testing.T) {
	corpus := inputs(7, 1000)
	hardened := switching.Hardened(hardeningSessionKey, recPair()...)
	hardened.Defense.QuarantineThreshold = 100
	for _, tc := range []struct {
		name string
		cfg  switching.Config
	}{
		{"paper-exact", switching.PaperExact(recPair()...)},
		{"hardened", hardened},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.TokenInterval = 2 * time.Millisecond
			col := obs.NewCollector()
			cfg.Recorder = col
			c, err := swtest.NewSwitched(1, simnet.Config{Nodes: 4, PropDelay: 100 * time.Microsecond}, 4, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Warm up, then pour the corpus into member 0's ingress as if
			// peer 2 sent it, mid-run so timers and the token are live.
			c.Sim.At(20*time.Millisecond, func() {
				for _, pkt := range corpus {
					c.Members[0].Switch.Recv(2, pkt)
				}
			})
			c.Run(100 * time.Millisecond)
			c.Stop()

			st := c.Members[0].Switch.Stats()
			if cfg.Defense != nil {
				if st.AuthFailed < uint64(len(corpus)) {
					t.Errorf("defense rejected %d of %d adversarial packets", st.AuthFailed, len(corpus))
				}
				if st.Quarantines != 1 {
					t.Errorf("quarantines = %d, want 1 (threshold %d, corpus %d)",
						st.Quarantines, cfg.Defense.QuarantineThreshold, len(corpus))
				}
				if got := authFailsFrom(col.Events(), 0, 2); got < uint64(len(corpus)) {
					t.Errorf("auth failures from 2 = %d, want >= %d", got, len(corpus))
				}
			}
			// The stack survived: the ring is still rotating.
			if st.TokenPasses == 0 {
				t.Error("token never rotated — the garbage wedged the stack")
			}
		})
	}
}
