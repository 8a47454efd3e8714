package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestSealAuthRoundTrip(t *testing.T) {
	session := []byte("group session key")
	for _, epoch := range []uint64{0, 1, 127, 128, 1 << 20, 1<<64 - 1} {
		key := DeriveEpochKey(session, epoch)
		for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 100)} {
			pkt := SealAuth(key, epoch, payload)
			got, err := OpenAuth(key, pkt)
			if err != nil {
				t.Fatalf("OpenAuth(epoch=%d, len=%d): %v", epoch, len(payload), err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("payload mangled: %q vs %q", got, payload)
			}
			split, err := SplitAuth(pkt)
			if err != nil || split.Epoch != epoch {
				t.Fatalf("SplitAuth epoch = %d, %v; want %d", split.Epoch, err, epoch)
			}
		}
	}
}

func TestOpenAuthRejectsWrongKey(t *testing.T) {
	session := []byte("group session key")
	key := DeriveEpochKey(session, 3)
	pkt := SealAuth(key, 3, []byte("hello"))

	// Wrong epoch's key: same session, different derivation.
	if _, err := OpenAuth(DeriveEpochKey(session, 4), pkt); !errors.Is(err, ErrAuth) {
		t.Errorf("wrong-epoch key: err = %v, want ErrAuth", err)
	}
	// Completely foreign key.
	if _, err := OpenAuth([]byte("attacker key"), pkt); !errors.Is(err, ErrAuth) {
		t.Errorf("foreign key: err = %v, want ErrAuth", err)
	}
	// Right key still works after the failed attempts.
	if _, err := OpenAuth(key, pkt); err != nil {
		t.Errorf("correct key after failures: %v", err)
	}
}

func TestOpenAuthRejectsSplicedEpoch(t *testing.T) {
	// An attacker must not be able to take a valid epoch-3 frame and
	// rewrite its header to claim another epoch: the epoch bytes are
	// inside the MAC.
	session := []byte("group session key")
	key := DeriveEpochKey(session, 3)
	pkt := SealAuth(key, 3, []byte("hello"))
	pkt[1] = 4 // single-byte uvarint: 3 -> 4
	if f, err := SplitAuth(pkt); err != nil || f.Epoch != 4 {
		t.Fatalf("SplitAuth epoch after splice = %d, %v", f.Epoch, err)
	}
	if _, err := OpenAuth(DeriveEpochKey(session, 4), pkt); !errors.Is(err, ErrAuth) {
		t.Errorf("spliced epoch verified under epoch-4 key: err = %v", err)
	}
	if _, err := OpenAuth(key, pkt); !errors.Is(err, ErrAuth) {
		t.Errorf("spliced epoch verified under epoch-3 key: err = %v", err)
	}
}

func TestOpenAuthRejectsDamage(t *testing.T) {
	key := DeriveEpochKey([]byte("k"), 9)
	pkt := SealAuth(key, 9, []byte("the payload under test"))
	for bit := 0; bit < len(pkt)*8; bit++ {
		dam := append([]byte(nil), pkt...)
		dam[bit/8] ^= 1 << uint(bit%8)
		if _, err := OpenAuth(key, dam); err == nil {
			t.Fatalf("OpenAuth accepted a 1-bit-damaged envelope (bit %d)", bit)
		}
	}
}

func TestOpenAuthRejectsMalformed(t *testing.T) {
	key := DeriveEpochKey([]byte("k"), 0)
	cases := [][]byte{
		nil,
		{},
		{authMagic},
		{0xD5, 0, 0, 0, 0, 0}, // the retired CRC envelope's magic, not auth
		{authMagic, 0x80},     // truncated uvarint
		append([]byte{authMagic, 0}, make([]byte, MACSize-1)...), // short MAC
		bytes.Repeat([]byte{0x80}, 32),                           // unterminated varint
	}
	for i, pkt := range cases {
		if _, err := OpenAuth(key, pkt); !errors.Is(err, ErrAuthFrame) {
			t.Errorf("case %d: err = %v, want ErrAuthFrame", i, err)
		}
		if _, err := SplitAuth(pkt); !errors.Is(err, ErrAuthFrame) {
			t.Errorf("case %d: SplitAuth err = %v, want ErrAuthFrame", i, err)
		}
	}
	// Shortest well-formed envelope: empty payload.
	min := SealAuth(key, 0, nil)
	if _, err := OpenAuth(key, min); err != nil {
		t.Errorf("minimal envelope rejected: %v", err)
	}
}

func TestDeriveEpochKeyIndependence(t *testing.T) {
	session := []byte("group session key")
	k0 := DeriveEpochKey(session, 0)
	k1 := DeriveEpochKey(session, 1)
	if bytes.Equal(k0, k1) {
		t.Error("epoch keys 0 and 1 are identical")
	}
	if len(k0) != 32 {
		t.Errorf("epoch key length = %d, want 32", len(k0))
	}
	// Deterministic: same inputs, same key.
	if !bytes.Equal(k0, DeriveEpochKey(session, 0)) {
		t.Error("DeriveEpochKey is not deterministic")
	}
	// Different sessions disagree at the same epoch.
	if bytes.Equal(k0, DeriveEpochKey([]byte("other session"), 0)) {
		t.Error("distinct sessions derived the same epoch key")
	}
}

func TestAuthAndCRCEnvelopesAreDisjoint(t *testing.T) {
	// A frame in the retired CRC envelope ([0xD5][crc32c LE][payload])
	// must never open as an auth frame: the leading magic differs.
	key := DeriveEpochKey([]byte("k"), 1)
	crc := append([]byte{0xD5, 0x9F, 0x3B, 0x6A, 0x11}, "plain"...)
	if _, err := OpenAuth(key, crc); !errors.Is(err, ErrAuthFrame) {
		t.Errorf("OpenAuth(crc frame) = %v, want ErrAuthFrame", err)
	}
}
