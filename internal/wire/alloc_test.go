package wire

import (
	"bytes"
	"testing"
)

// Allocation regression tests for the zero-alloc hot path. These pin
// the per-frame costs the throughput benchmarks depend on: Frame at
// most one allocation (the encoder's own buffer growing once), the
// Spares-backed/append-style variants at zero. testing.AllocsPerRun does one
// warm-up call, which absorbs the first-use growth and the HMAC's
// internal state marshaling.

func TestFrameAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 256)
	// Fresh encoder sized for header+payload: the single allocation is
	// NewEncoder's buffer; Frame itself must not add another.
	allocs := testing.AllocsPerRun(100, func() {
		e := NewEncoder(8 + len(payload))
		e.U8(1).Uvarint(42)
		benchSink = e.Frame(payload)
	})
	if allocs > 1 {
		t.Fatalf("NewEncoder+Frame allocated %.1f times per op, want <= 1", allocs)
	}
	// An encoder over a buffer from the owner's Spares, given back once
	// the frame is handed on: steady state must be allocation-free.
	var spare Spares
	allocs = testing.AllocsPerRun(100, func() {
		e := EncodeInto(spare.Get(8 + len(payload)))
		frame := e.U8(1).Uvarint(42).Frame(payload)
		benchSink = frame
		spare.Put(frame)
	})
	if allocs != 0 {
		t.Fatalf("Spares-backed encoder Frame allocated %.1f times per op, want 0", allocs)
	}
}

func TestFrameBytesMatchPrepend(t *testing.T) {
	payload := []byte("the payload under the header")
	a := NewEncoder(8)
	a.U8(7).Uvarint(99)
	want := a.Prepend(payload)
	b := NewEncoder(8)
	b.U8(7).Uvarint(99)
	got := b.Frame(payload)
	if !bytes.Equal(got, want) {
		t.Fatalf("Frame bytes differ from Prepend: got %x want %x", got, want)
	}
	// Reset reuses the buffer for a second frame.
	got2 := b.Reset().U8(7).Uvarint(99).Frame(payload)
	if !bytes.Equal(got2, want) {
		t.Fatalf("Frame after Reset differs: got %x want %x", got2, want)
	}
}

func TestSealAuthToBytesMatchSealAuth(t *testing.T) {
	key := DeriveEpochKey([]byte("alloc test session"), 3)
	payload := []byte("authenticated payload")
	want := SealAuth(key, 3, payload)
	if got := SealAuthTo(nil, key, 3, payload); !bytes.Equal(got, want) {
		t.Fatalf("SealAuthTo bytes differ: got %x want %x", got, want)
	}
	sealer := NewAuthSealer(key, 3)
	if got := sealer.SealTo(nil, payload); !bytes.Equal(got, want) {
		t.Fatalf("AuthSealer.SealTo bytes differ: got %x want %x", got, want)
	}
	// Cross-verify: sealer output opens with OpenAuth and vice versa.
	if _, err := OpenAuth(key, sealer.SealTo(nil, payload)); err != nil {
		t.Fatalf("OpenAuth rejected AuthSealer frame: %v", err)
	}
	if _, err := sealer.Open(want); err != nil {
		t.Fatalf("AuthSealer.Open rejected SealAuth frame: %v", err)
	}
}

// TestAuthSealerAllocs covers both sides of the memo: a 256-byte
// payload is remembered once sealed, a heartbeat-sized one hits after
// its first seal, a rotation of more short payloads than the memo holds
// misses and is remembered every time, and a 2 KB payload that changes
// on every seal is copied into the memo and recognised when it comes
// back.
func TestAuthSealerAllocs(t *testing.T) {
	key := DeriveEpochKey([]byte("alloc test session"), 5)
	sealer := NewAuthSealer(key, 5)
	long := bytes.Repeat([]byte{0xEF}, 256)
	var rotation [][]byte
	for i := 0; i <= memoSlots; i++ {
		rotation = append(rotation, []byte{byte(i), 1})
	}
	cases := []struct {
		name     string
		payloads [][]byte
	}{
		{"long", [][]byte{long}},
		{"repeat", [][]byte{{3, 1}}},
		{"rotation", rotation},
	}
	for _, c := range cases {
		dst := make([]byte, 0, MaxAuthOverhead+len(long))
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			benchSink = sealer.SealTo(dst, c.payloads[i%len(c.payloads)])
			i++
		})
		if allocs != 0 {
			t.Fatalf("%s: AuthSealer.SealTo allocated %.1f times per op, want 0", c.name, allocs)
		}
		var pkts [][]byte
		for _, p := range c.payloads {
			pkts = append(pkts, SealAuth(key, 5, p))
		}
		allocs = testing.AllocsPerRun(100, func() {
			pkt := pkts[i%len(pkts)]
			i++
			if p, err := sealer.Open(pkt); err != nil || len(p) != len(pkt)-2-MACSize {
				t.Fatal("open failed")
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: AuthSealer.Open allocated %.1f times per op, want 0", c.name, allocs)
		}
	}
	// A member's own multicast: a 2 KB payload, sealed and opened again
	// off the loop-back, a new one each time. Once the memo holds its
	// copy buffers the round trip allocates nothing.
	own := bytes.Repeat([]byte{0x2B}, 2048)
	dst := make([]byte, 0, MaxAuthOverhead+len(own))
	allocs := testing.AllocsPerRun(100, func() {
		own[0]++
		if p, err := sealer.Open(sealer.SealTo(dst, own)); err != nil || len(p) != len(own) {
			t.Fatal("own frame did not open")
		}
	})
	if allocs != 0 {
		t.Fatalf("own 2 KB frame: AuthSealer seal and reopen allocated %.1f times per op, want 0", allocs)
	}
}

func TestAuthSealerRejects(t *testing.T) {
	key := DeriveEpochKey([]byte("alloc test session"), 7)
	sealer := NewAuthSealer(key, 7)
	payload := []byte("frame")
	if sealer.Epoch() != 7 {
		t.Fatalf("Epoch() = %d, want 7", sealer.Epoch())
	}
	// Wrong epoch: well-formed envelope, different epoch counter.
	other := SealAuth(DeriveEpochKey([]byte("alloc test session"), 8), 8, payload)
	if _, err := sealer.Open(other); err != ErrAuth {
		t.Fatalf("wrong-epoch open: got %v, want ErrAuth", err)
	}
	// Wrong key, same epoch counter.
	forged := SealAuth(DeriveEpochKey([]byte("other session"), 7), 7, payload)
	if _, err := sealer.Open(forged); err != ErrAuth {
		t.Fatalf("wrong-key open: got %v, want ErrAuth", err)
	}
	// Structural garbage.
	if _, err := sealer.Open([]byte{0x00, 0x01}); err != ErrAuthFrame {
		t.Fatalf("garbage open: got %v, want ErrAuthFrame", err)
	}
	if _, err := sealer.Open(nil); err != ErrAuthFrame {
		t.Fatalf("nil open: got %v, want ErrAuthFrame", err)
	}
	// Truncated just below the MAC boundary.
	good := sealer.SealTo(nil, payload)
	if _, err := sealer.Open(good[:3]); err != ErrAuthFrame {
		t.Fatalf("truncated open: got %v, want ErrAuthFrame", err)
	}
	// Flipped payload bit.
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 1
	if _, err := sealer.Open(bad); err != ErrAuth {
		t.Fatalf("corrupted open: got %v, want ErrAuth", err)
	}
}
