package switching_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
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
	"repro/internal/wire"
)

var hardeningSessionKey = []byte("hardening suite session key")

// forgedInner builds a syntactically valid switching frame — mux
// channel, FIFO cast header, epoch tag, well-formed application message
// — with the FORGED marker in the body. Everything about it parses;
// only a correct MAC could make it trusted.
func forgedInner(epoch uint64, seq uint64, tag int) []byte {
	app := proto.AppMsg{ID: proto.MakeMsgID(2, uint32(seq)), Sender: 2,
		Body: []byte(fmt.Sprintf("FORGED %d", tag))}
	e := wire.NewEncoder(16)
	e.Channel(ids.ProtocolChannel(int(epoch % 2)))
	e.U8(1)
	e.Uvarint(seq)
	e.Uvarint(epoch)
	return e.Prepend(app.Encode())
}

// crcEnveloped wraps payload in the retired CRC-only envelope
// ([0xD5][crc32c LE][payload]): intact, self-consistent, and carrying no
// MAC at all — what a sender without the session key can always produce.
func crcEnveloped(payload []byte) []byte {
	hdr := []byte{0xD5, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[1:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(hdr, payload...)
}

// forgedCorpus is the structured sibling of inputs(): count frames an
// adversary without the session key could actually put on the wire —
// auth envelopes sealed under guessed keys, CRC envelopes around
// valid-looking frames, auth headers spliced onto random bytes — rather
// than uniform noise.
func forgedCorpus(seed int64, count int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, 0, count)
	for i := 0; len(out) < count; i++ {
		epoch := uint64(rng.Intn(4))
		inner := forgedInner(epoch, uint64(rng.Intn(1<<16)), i)
		switch i % 4 {
		case 0: // wrong session key, valid structure
			key := make([]byte, 16)
			rng.Read(key)
			out = append(out, wire.SealAuth(wire.DeriveEpochKey(key, epoch), epoch, inner))
		case 1: // no key at all: a checksum where the MAC should be
			out = append(out, crcEnveloped(inner))
		case 2: // auth header spliced onto noise
			b := make([]byte, 1+rng.Intn(48))
			rng.Read(b)
			b[0] = 0xA7
			out = append(out, b)
		default: // bare inner frame, no envelope
			out = append(out, inner)
		}
	}
	return out
}

// TestLayerIngressSurvivesForgedFrames feeds the structured forged
// corpus — delivered twice each, modeling an adversary who also replays
// its own transmissions — into every protocol layer's Recv. No layer
// may panic, and each must account for rejected input.
func TestLayerIngressSurvivesForgedFrames(t *testing.T) {
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
	corpus := forgedCorpus(99, 500)
	for _, tc := range layers {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.make()
			env := ptest.NewFakeEnv(0, group)
			down, up := &ptest.RecordDown{}, &ptest.RecordUp{}
			if err := l.Init(env, down, up); err != nil {
				t.Fatal(err)
			}
			for i, pkt := range corpus {
				src := ids.ProcID(1 + i%(group-1))
				l.Recv(src, pkt)
				l.Recv(src, pkt) // the replay
			}
			mc, ok := l.(malformedCounter)
			if !ok {
				t.Fatalf("%T does not expose MalformedDropped()", l)
			}
			if mc.MalformedDropped() == 0 {
				t.Errorf("%s: %d forged packets (each twice), none counted malformed", tc.name, len(corpus))
			}
			l.Stop()
		})
	}
}

// TestSwitchIngressSurvivesForgedAndReplayed replays both corpora
// against the authenticated switching stack mid-run: 500 forged frames
// (sealed without the session key) plus 500 cross-epoch replays
// (genuine epoch-0 seals fired after the group moved to epoch 1 and the
// grace window closed). Every frame must be rejected at the auth
// boundary and counted, the flood must cross the quarantine threshold,
// no FORGED body may reach any application, and the ring must keep
// rotating.
func TestSwitchIngressSurvivesForgedAndReplayed(t *testing.T) {
	col := obs.NewCollector()
	cfg := switching.Config{
		Protocols:     recPair(),
		TokenInterval: 2 * time.Millisecond,
		Recorder:      col,
		Defense: &switching.DefenseConfig{
			QuarantineThreshold: 100,
			Auth:                &switching.AuthConfig{SessionKey: hardeningSessionKey},
		},
	}
	c, err := swtest.NewSwitched(1, simnet.Config{Nodes: 4, PropDelay: 100 * time.Microsecond}, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	forged := forgedCorpus(100, 500)
	replayed := make([][]byte, 500)
	for i := range replayed {
		// Genuine epoch-0 frames an adversary could have captured: the
		// session key is group state, so recorded bytes are exactly this.
		replayed[i] = wire.SealAuth(wire.DeriveEpochKey(hardeningSessionKey, 0), 0,
			forgedInner(0, uint64(50000+i), i))
	}
	c.Sim.At(10*time.Millisecond, func() { c.Members[1].Switch.RequestSwitch() })
	// Pour both corpora into member 0 well after the switch completed
	// and the epoch-0 grace window closed.
	c.Sim.At(100*time.Millisecond, func() {
		if got := c.Members[0].Switch.Epoch(); got != 1 {
			t.Errorf("member 0 at epoch %d before injection, want 1", got)
		}
		for _, pkt := range forged {
			c.Members[0].Switch.Recv(2, pkt)
		}
		for _, pkt := range replayed {
			c.Members[0].Switch.Recv(2, pkt)
		}
	})
	c.Run(300 * time.Millisecond)
	c.Stop()

	st := c.Members[0].Switch.Stats()
	total := uint64(len(forged) + len(replayed))
	if st.AuthFailed < total {
		t.Errorf("auth rejected %d of %d adversarial packets", st.AuthFailed, total)
	}
	if got := authFailsFrom(col.Events(), 0, 2); got < total {
		t.Errorf("auth failures from 2 = %d, want >= %d", got, total)
	}
	if st.Quarantines != 1 {
		t.Errorf("quarantines = %d, want 1 (threshold 100, corpus %d)", st.Quarantines, total)
	}
	if st.TokenPasses == 0 {
		t.Error("token never rotated — the flood wedged the stack")
	}
	for p := 0; p < 4; p++ {
		bodies, err := c.AppBodies(ids.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bodies {
			if strings.Contains(b, "FORGED") {
				t.Errorf("member %d delivered forged body %q", p, b)
			}
		}
	}
}
