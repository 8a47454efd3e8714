package wire

import (
	"bytes"
	"errors"
	"hash"
	"math/rand"
	"testing"
)

// The AuthSealer memo must be invisible: whatever it remembers, Open
// and SealTo return exactly what the stateless OpenAuth and SealAuth
// return for the same bytes.

// TestAuthSealerMatchesStateless drives two sealers (adjacent epochs of
// one session) through random sequences of seals, repeated opens and
// mutated opens — one byte flipped anywhere, the MAC alone flipped,
// truncations, and a frame opened by the other epoch's sealer — and
// compares every result with the stateless envelope.
func TestAuthSealerMatchesStateless(t *testing.T) {
	session := []byte("memo differential session")
	type side struct {
		key    []byte
		epoch  uint64
		sealer *AuthSealer
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var sides [2]side
		for i := range sides {
			epoch := uint64(126 + i) // a one-byte epoch header
			if seed%2 == 0 {
				epoch += 2 // 128 and 129: two bytes
			}
			key := DeriveEpochKey(session, epoch)
			sides[i] = side{key, epoch, NewAuthSealer(key, epoch)}
		}
		// A small payload pool, so repeats happen: heartbeat-sized and
		// memo-sized payloads that the memo keeps, and longer ones it
		// never does.
		var pool [][]byte
		for _, n := range []int{0, 1, 2, 2, 5, memoMax - 1, memoMax, memoMax + 1, 40, 256} {
			p := make([]byte, n)
			rng.Read(p)
			pool = append(pool, p)
		}
		pool = append(pool, []byte{3, 1}, []byte{3, 1}) // a byte-identical pair
		var frames [][]byte
		for op := 0; op < 600; op++ {
			s := &sides[rng.Intn(2)]
			if len(frames) == 0 || rng.Intn(4) == 0 {
				payload := pool[rng.Intn(len(pool))]
				got := s.sealer.SealTo(nil, payload)
				if want := SealAuth(s.key, s.epoch, payload); !bytes.Equal(got, want) {
					t.Fatalf("seed %d op %d: SealTo = %x, SealAuth = %x", seed, op, got, want)
				}
				frames = append(frames, got)
				continue
			}
			pkt := append([]byte(nil), frames[rng.Intn(len(frames))]...)
			switch rng.Intn(6) {
			case 0: // one byte flipped anywhere
				pkt[rng.Intn(len(pkt))] ^= byte(1 + rng.Intn(255))
			case 1: // the MAC alone flipped
				pkt[s.sealer.hdrLen+rng.Intn(MACSize)] ^= byte(1 + rng.Intn(255))
			case 2: // truncated
				pkt = pkt[:rng.Intn(len(pkt))]
			}
			for rep := 0; rep < 2; rep++ {
				got, err := s.sealer.Open(pkt)
				want, werr := OpenAuth(s.key, pkt)
				if err != werr || !bytes.Equal(got, want) {
					t.Fatalf("seed %d op %d rep %d: Open(%x) = %x, %v; OpenAuth = %x, %v",
						seed, op, rep, pkt, got, err, want, werr)
				}
			}
		}
	}
}

// TestAuthSealerMemoHeaderBound pins the one input where a remembered
// payload and MAC are not enough: a valid frame whose epoch header is a
// non-canonical encoding of the sealer's epoch. It is MACed over its
// own header bytes, so it verifies as it stands, and the canonical
// frame carrying its MAC does not.
func TestAuthSealerMemoHeaderBound(t *testing.T) {
	key := DeriveEpochKey([]byte("memo header session"), 3)
	sealer := NewAuthSealer(key, 3)
	payload := []byte{3, 1}
	canonical := sealer.SealTo(nil, payload) // remembered now
	long := []byte{0x83, 0x00}               // epoch 3 in two bytes
	mac := MAC(key, long, payload)
	nonCanonical := append(append([]byte{authMagic}, long...), mac[:]...)
	nonCanonical = append(nonCanonical, payload...)
	spliced := append(append([]byte{authMagic, 0x03}, mac[:]...), payload...)
	for _, pkt := range [][]byte{canonical, nonCanonical, spliced, nonCanonical, canonical} {
		got, err := sealer.Open(pkt)
		want, werr := OpenAuth(key, pkt)
		if err != werr || !bytes.Equal(got, want) {
			t.Fatalf("Open(%x) = %x, %v; OpenAuth = %x, %v", pkt, got, err, want, werr)
		}
	}
	if _, err := sealer.Open(nonCanonical); err != nil {
		t.Fatalf("non-canonical but valid frame rejected: %v", err)
	}
	if _, err := sealer.Open(spliced); !errors.Is(err, ErrAuth) {
		t.Fatalf("canonical header with another header's MAC: err = %v, want ErrAuth", err)
	}
}

// countingMAC counts the MACs a sealer computes: computeMAC ends every
// one with Sum.
type countingMAC struct {
	hash.Hash
	sums int
}

func (c *countingMAC) Sum(b []byte) []byte {
	c.sums++
	return c.Hash.Sum(b)
}

// countMACs makes a count the MACs it computes from now on.
func countMACs(a *AuthSealer) *countingMAC {
	c := &countingMAC{Hash: a.mac}
	a.mac = c
	return c
}

// TestAuthSealerOpensOwnFrames: a frame carrying a long payload the
// sealer sealed — a member's own multicast, back on the loop-back —
// opens without HMAC and with the verdict OpenAuth gives. A tampered
// copy is rejected exactly as OpenAuth rejects it, and a different
// payload of the same length runs HMAC.
func TestAuthSealerOpensOwnFrames(t *testing.T) {
	key := DeriveEpochKey([]byte("loop-back session"), 4)
	sealer := NewAuthSealer(key, 4)
	macs := countMACs(sealer)
	rng := rand.New(rand.NewSource(4))
	payload := make([]byte, 2048)
	rng.Read(payload)
	pkt := sealer.SealTo(nil, payload)
	hdr := len(pkt) - MACSize - len(payload)

	check := func(name string, pkt []byte, wantMACs int) {
		t.Helper()
		before := macs.sums
		got, err := sealer.Open(pkt)
		want, werr := OpenAuth(key, pkt)
		if err != werr || !bytes.Equal(got, want) {
			t.Errorf("%s: Open = %d bytes, %v; OpenAuth = %d bytes, %v", name, len(got), err, len(want), werr)
		}
		if n := macs.sums - before; n != wantMACs {
			t.Errorf("%s: Open computed %d MACs, want %d", name, n, wantMACs)
		}
	}
	check("own frame", pkt, 0)
	check("own frame again", pkt, 0)

	flipped := bytes.Clone(pkt)
	flipped[hdr+MACSize+1000] ^= 0x01
	check("one payload byte flipped", flipped, 1)
	tag := bytes.Clone(pkt)
	tag[hdr+3] ^= 0x80
	check("one tag byte flipped", tag, 0)
	check("last byte cut", pkt[:len(pkt)-1], 1)
	check("cut to a short payload", pkt[:hdr+MACSize+memoMax], 1)
	check("cut inside the tag", pkt[:hdr+MACSize-1], 0)

	other := make([]byte, len(payload))
	rng.Read(other)
	check("another sender's payload of the same length", SealAuth(key, 4, other), 1)
	spliced := append(bytes.Clone(pkt[:hdr+MACSize]), other...)
	check("another payload under the remembered tag", spliced, 1)
	check("own frame after the misses", pkt, 0)
}

// TestAuthSealerInherit: the epoch that takes over sealing inherits the
// memo's buffers but none of its entries, so the old sealer's frames
// run HMAC again and still verify; the new sealer remembers its own
// frames, and sealing and reopening them allocates nothing once
// inherited.
func TestAuthSealerInherit(t *testing.T) {
	session := []byte("inherit session")
	oldKey, newKey := DeriveEpochKey(session, 6), DeriveEpochKey(session, 7)
	old, next := NewAuthSealer(oldKey, 6), NewAuthSealer(newKey, 7)
	payload := bytes.Repeat([]byte{0x6B}, 2048)
	oldPkt := old.SealTo(nil, payload)
	old.SealTo(nil, payload[1:]) // both entries hold a buffer

	next.Inherit(old)
	oldMACs := countMACs(old)
	if _, err := old.Open(oldPkt); err != nil || oldMACs.sums != 1 {
		t.Fatalf("old sealer's own frame after Inherit: err %v, %d MACs, want nil and 1", err, oldMACs.sums)
	}
	nextMACs := countMACs(next)
	if _, err := next.Open(oldPkt); !errors.Is(err, ErrAuth) {
		t.Fatalf("the old epoch's frame opened by the new sealer: err %v, want ErrAuth", err)
	}
	dst := make([]byte, 0, MaxAuthOverhead+len(payload))
	allocs := testing.AllocsPerRun(100, func() {
		payload[0]++
		if _, err := next.Open(next.SealTo(dst, payload)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("sealing and reopening under the inheriting sealer allocated %.1f times per op, want 0", allocs)
	}
	if nextMACs.sums != 101 {
		t.Errorf("101 seals and reopens computed %d MACs, want 101 (one per seal)", nextMACs.sums)
	}
}
