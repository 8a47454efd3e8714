package wire

import (
	"bytes"
	"errors"
	"testing"
)

// fuzzAuthKey is the fixed verification key for FuzzOpenAuth: the
// fuzzer explores the envelope space, not the key space (a random key
// never verifies, which would leave the accept path dark).
var fuzzAuthKey = DeriveEpochKey([]byte("fuzz session key"), 0)

// FuzzOpenAuth drives OpenAuth and SplitAuth over arbitrary bytes. The
// contract: never panic, classify every input as ErrAuthFrame /
// ErrAuth / accept, and only accept canonical envelopes sealed under
// the verification key. Each input is also opened twice through one
// AuthSealer for its claimed epoch — the second time with the first
// result in its memo — and both results must equal OpenAuth's.
func FuzzOpenAuth(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{authMagic})
	f.Add([]byte{authMagic, 0x80, 0x80, 0x80})
	f.Add(append([]byte{0xD5, 0x9F, 0x3B, 0x6A, 0x11}, "crc framed"...)) // the retired CRC envelope's shape
	f.Add(SealAuth(fuzzAuthKey, 0, nil))
	f.Add(SealAuth(fuzzAuthKey, 7, []byte("authenticated payload")))
	f.Add(SealAuth(DeriveEpochKey([]byte("fuzz session key"), 1), 1, []byte("other epoch")))
	f.Add(SealAuth([]byte("wrong key"), 3, []byte("forged")))

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := OpenAuth(fuzzAuthKey, data)
		claimed, _ := SplitAuth(data)
		sealer := NewAuthSealer(fuzzAuthKey, claimed.Epoch)
		for rep := 0; rep < 2; rep++ {
			if got, serr := sealer.Open(data); serr != err || !bytes.Equal(got, payload) {
				t.Fatalf("open %d: AuthSealer.Open = %x, %v; OpenAuth = %x, %v", rep, got, serr, payload, err)
			}
		}
		switch {
		case err == nil:
			// Accepted envelopes are canonical: re-sealing the payload
			// at the peeked epoch reproduces the input byte-for-byte.
			split, eerr := SplitAuth(data)
			if eerr != nil {
				t.Fatalf("OpenAuth accepted but SplitAuth failed: %v", eerr)
			}
			if !bytes.Equal(SealAuth(fuzzAuthKey, split.Epoch, payload), data) {
				t.Fatal("OpenAuth accepted a non-canonical envelope")
			}
		case errors.Is(err, ErrAuthFrame):
			// Structurally bad: SplitAuth must agree.
			if _, eerr := SplitAuth(data); eerr == nil {
				t.Fatal("OpenAuth says ErrAuthFrame but SplitAuth parsed it")
			}
		case errors.Is(err, ErrAuth):
			// Well-formed but unverifiable: the structure must parse.
			if _, eerr := SplitAuth(data); eerr != nil {
				t.Fatalf("OpenAuth says ErrAuth but SplitAuth failed: %v", eerr)
			}
		default:
			t.Fatalf("OpenAuth returned unexpected error: %v", err)
		}
	})
}

// FuzzAuthRoundTrip seals fuzzer-chosen payloads under fuzzer-chosen
// session keys and epochs, requires exact round trips, cross-epoch and
// cross-key rejection, and single-bit damage detection.
func FuzzAuthRoundTrip(f *testing.F) {
	f.Add([]byte(nil), uint64(0), []byte(nil))
	f.Add([]byte("session"), uint64(1), []byte("payload"))
	f.Add([]byte("s"), uint64(1)<<62, bytes.Repeat([]byte{0xAA}, 64))

	f.Fuzz(func(t *testing.T, session []byte, epoch uint64, payload []byte) {
		key := DeriveEpochKey(session, epoch)
		pkt := SealAuth(key, epoch, payload)
		got, err := OpenAuth(key, pkt)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("round trip: %q, %v", got, err)
		}
		if f, err := SplitAuth(pkt); err != nil || f.Epoch != epoch {
			t.Fatalf("SplitAuth epoch = %d, %v; want %d", f.Epoch, err, epoch)
		}
		// The adjacent epoch's key must reject the frame: this is the
		// property the switching layer's replay rejection rests on.
		if _, err := OpenAuth(DeriveEpochKey(session, epoch+1), pkt); !errors.Is(err, ErrAuth) {
			t.Fatalf("next epoch's key verified the frame: %v", err)
		}
		// Single-bit damage anywhere in the envelope must be rejected.
		bit := int(epoch % uint64(len(pkt)*8))
		dam := append([]byte(nil), pkt...)
		dam[bit/8] ^= 1 << uint(bit%8)
		if _, err := OpenAuth(key, dam); err == nil {
			t.Fatalf("OpenAuth accepted a 1-bit-damaged envelope (bit %d)", bit)
		}
	})
}
