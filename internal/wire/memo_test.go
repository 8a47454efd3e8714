package wire

import (
	"bytes"
	"errors"
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
