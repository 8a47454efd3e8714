package wire

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"hash"
)

// This file is the authenticated envelope, the one envelope the
// switching layer's defensive ingress speaks: it rejects deliberate
// forgery and, being a MAC over every byte, accidental damage with it.
// The MAC key is not used directly — each switching epoch derives its
// own subkey from the group session key (DeriveEpochKey), so a frame
// authenticates both its bytes AND the epoch it was sealed in. That per-epoch binding is what lets the
// switching layer reject a frame captured in epoch N and replayed after
// the group has moved to epoch N+1: the recorded MAC only verifies
// under epoch N's key, and the receiver stopped accepting that key when
// the grace window closed. The design follows the mpENC pattern of
// rolling authentication state forward with group membership/protocol
// changes instead of resetting it.
//
// Envelope layout: [magic 0xA7][epoch uvarint][mac 16][payload], where
// mac = HMAC-SHA256(epochKey, epochHeader || payload) truncated to 16
// bytes. The epoch header bytes are inside the MAC so an attacker
// cannot splice a valid epoch-N frame into an epoch-M envelope.

// authMagic distinguishes authenticated frames from stray bytes before
// any crypto runs.
const authMagic = 0xA7

// MACSize is the truncated HMAC-SHA256 length. 128 bits keeps the
// per-frame overhead comparable to a UUID while leaving forgery
// probability negligible for a session's lifetime.
const MACSize = 16

// MaxAuthOverhead bounds the envelope size: magic + max uvarint epoch
// (10 bytes) + MAC.
const MaxAuthOverhead = 1 + binary.MaxVarintLen64 + MACSize

// ErrAuthFrame is returned by SplitAuth and OpenAuth for input that is
// not structurally an authenticated envelope (too short, wrong magic,
// malformed epoch varint).
var ErrAuthFrame = errors.New("wire: bad auth envelope")

// ErrAuth is returned by OpenAuth when the envelope is well-formed but
// the MAC does not verify under the given key: a forgery, a replay
// sealed under a retired epoch key, or corruption.
var ErrAuth = errors.New("wire: authentication failed")

// DeriveEpochKey derives the per-epoch MAC key from the group session
// key: HMAC-SHA256(sessionKey, "switch-epoch" || epoch LE64). Epoch
// keys are independent — compromise or exposure of one epoch's key
// reveals nothing about any other epoch's.
func DeriveEpochKey(sessionKey []byte, epoch uint64) []byte {
	mac := hmac.New(sha256.New, sessionKey)
	var label [20]byte
	copy(label[:], "switch-epoch")
	binary.LittleEndian.PutUint64(label[12:], epoch)
	mac.Write(label[:])
	return mac.Sum(nil)
}

// MAC is the repository's one keyed MAC: HMAC-SHA256 over header (may
// be nil) followed by payload, truncated to MACSize. The envelope passes
// its epoch header bytes; protocols/integrity MACs the bare payload.
func MAC(key, header, payload []byte) [MACSize]byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(header)
	mac.Write(payload)
	var sum [sha256.Size]byte
	mac.Sum(sum[:0])
	var out [MACSize]byte
	copy(out[:], sum[:MACSize])
	return out
}

// SealAuth wraps payload in the authenticated envelope under the given
// per-epoch key (see DeriveEpochKey), returning a fresh slice.
func SealAuth(key []byte, epoch uint64, payload []byte) []byte {
	return SealAuthTo(make([]byte, 0, MaxAuthOverhead+len(payload)), key, epoch, payload)
}

// SealAuthTo appends the authenticated envelope and payload to dst and
// returns the extended slice — the append-style variant of SealAuth for
// callers that reuse a scratch buffer. It still constructs an HMAC
// instance per call; the steady-state path should hold an AuthSealer,
// which caches the keyed HMAC for its epoch.
func SealAuthTo(dst []byte, key []byte, epoch uint64, payload []byte) []byte {
	base := len(dst)
	dst = append(dst, authMagic)
	dst = binary.AppendUvarint(dst, epoch)
	mac := MAC(key, dst[base+1:], payload)
	dst = append(dst, mac[:]...)
	return append(dst, payload...)
}

// AuthSealer seals and opens authenticated envelopes for one (key,
// epoch) pair with a cached HMAC instance, precomputed header bytes,
// and an internal digest scratch — the zero-allocation sibling of
// SealAuth/OpenAuth. The switching layer keeps one per live epoch in
// its key schedule, rolled with the epoch keys themselves, so sealing a
// frame in steady state costs no heap and, per frame, one SHA-256
// compression per 64-byte block of epoch header, payload and padding
// plus one for the outer hash: the keyed pads' own blocks are restored
// from the cached state, not compressed again. Below epoch 128 (a
// one-byte header) a payload of up to 54 bytes costs two compressions,
// a 256-byte one six.
//
// The sealer memoizes tags, so that a frame it has already MACed does
// not run HMAC again. It remembers the tags of the last memoSlots
// payloads of at most memoMax bytes that it sealed or that arrived in a
// frame it verified, and copies of the last sealedSlots longer payloads
// that it sealed. Sealing a remembered payload reuses its tag; opening a
// frame with this sealer's header and a remembered payload compares the
// frame's MAC with the remembered tag, in constant time, and HMAC does
// not run. Under a fixed key the tag is a function of header and
// payload, so the memo returns exactly what computing the MAC would; it
// belongs to this one key, and only tags that were computed and, on
// Open, matched enter it. Two repeats pay for it. Failure-detector
// heartbeats: within an epoch every member's heartbeat is the same
// frame. And a member's own multicasts: each comes back to it on the
// loop-back, a data batch of a few kilobytes that it has just sealed.
//
// A short payload is compared in constant time. A long one is compared
// with bytes.Equal, which returns early at the first differing byte:
// the payload travels in the clear, so how much of it matches a
// remembered copy tells an observer nothing the wire did not. The tag,
// the secret-derived part, is always compared in constant time.
//
// An AuthSealer is not safe for concurrent use; each member's event
// loop owns its own (the same discipline as every protocol layer).
type AuthSealer struct {
	epoch uint64
	mac   hash.Hash
	hdr   [1 + binary.MaxVarintLen64]byte
	// memoNext fills hdr's padding, which keeps the struct, sealed
	// pointer included, in the same 224-byte size class as without it.
	memoNext uint8
	hdrLen   int
	sum      [sha256.Size]byte
	memo     [memoSlots]memoEntry
	// sealed is nil until the sealer seals its first long payload.
	sealed *sealedMemo
}

// memoSlots and memoMax size an AuthSealer's memo of short payloads:
// how many it remembers, and the longest it remembers. A heartbeat or
// an ack fits; a data frame does not. sealedSlots is how many long
// payloads it remembers having sealed: enough to span the flight time
// of a multicast to its own loop-back.
const (
	memoSlots   = 4
	memoMax     = 16
	sealedSlots = 2
)

// memoEntry is one remembered short payload and its tag.
type memoEntry struct {
	full    bool
	n       uint8
	payload [memoMax]byte
	tag     [MACSize]byte
}

// sealedMemo remembers the last sealedSlots long payloads a sealer
// sealed, each copied into a buffer its entry keeps for the next one,
// with its tag. An entry with an empty buffer is free: a long payload
// never equals it.
type sealedMemo struct {
	entries [sealedSlots]struct {
		buf []byte
		tag [MACSize]byte
	}
	next int
}

// NewAuthSealer returns a sealer for the given per-epoch key (see
// DeriveEpochKey) and epoch.
func NewAuthSealer(key []byte, epoch uint64) *AuthSealer {
	a := &AuthSealer{epoch: epoch, mac: hmac.New(sha256.New, key)}
	a.hdr[0] = authMagic
	a.hdrLen = 1 + binary.PutUvarint(a.hdr[1:], epoch)
	return a
}

// Epoch returns the epoch this sealer's key was derived for.
func (a *AuthSealer) Epoch() uint64 { return a.epoch }

// computeMAC runs the cached HMAC over epochHeader || payload. The
// returned slice aliases the sealer's scratch and is valid until the
// next computeMAC.
func (a *AuthSealer) computeMAC(epochHeader, payload []byte) []byte {
	a.mac.Reset()
	a.mac.Write(epochHeader)
	a.mac.Write(payload)
	return a.mac.Sum(a.sum[:0])
}

// recall returns the remembered tag of payload, or nil. A short
// payload is compared with every entry of its length in full, in
// constant time; a long one with the copies of sealed payloads.
func (a *AuthSealer) recall(payload []byte) []byte {
	if len(payload) > memoMax {
		if a.sealed == nil {
			return nil
		}
		for i := range a.sealed.entries {
			if e := &a.sealed.entries[i]; bytes.Equal(e.buf, payload) {
				return e.tag[:]
			}
		}
		return nil
	}
	var tag []byte
	for i := range a.memo {
		e := &a.memo[i]
		if e.full && int(e.n) == len(payload) && subtle.ConstantTimeCompare(e.payload[:e.n], payload) == 1 {
			tag = e.tag[:]
		}
	}
	return tag
}

// remember stores a short payload's tag in place of the oldest entry; a
// payload longer than memoMax is not remembered.
func (a *AuthSealer) remember(payload, tag []byte) {
	if len(payload) > memoMax {
		return
	}
	e := &a.memo[a.memoNext]
	a.memoNext = (a.memoNext + 1) % memoSlots
	e.full, e.n = true, uint8(len(payload))
	copy(e.payload[:], payload)
	copy(e.tag[:], tag)
}

// rememberSealed stores a copy of a long payload this sealer sealed,
// and its tag, in place of the oldest.
func (a *AuthSealer) rememberSealed(payload, tag []byte) {
	if a.sealed == nil {
		a.sealed = new(sealedMemo)
	}
	m := a.sealed
	e := &m.entries[m.next]
	m.next = (m.next + 1) % sealedSlots
	if cap(e.buf) < len(payload) {
		// Room for twice the payload: a member's frames vary in length,
		// and seldom double.
		e.buf = make([]byte, 0, 2*len(payload))
	}
	e.buf = append(e.buf[:0], payload...)
	copy(e.tag[:], tag)
}

// Inherit takes over from's memo of sealed payloads, emptied, with its
// copy buffers, in place of its own: from forgets what it sealed, and
// this sealer remembers nothing it has not sealed itself. Call it when
// from stops sealing because this sealer's epoch takes over, so that
// the buffers pass from epoch to epoch instead of being made anew.
func (a *AuthSealer) Inherit(from *AuthSealer) {
	m := from.sealed
	if m == nil {
		return
	}
	from.sealed = nil
	for i := range m.entries {
		m.entries[i].buf = m.entries[i].buf[:0]
	}
	a.sealed = m
}

// SealTo appends the authenticated envelope and payload to dst and
// returns the extended slice. Equivalent bytes to SealAuth under the
// same key and epoch.
func (a *AuthSealer) SealTo(dst, payload []byte) []byte {
	tag := a.recall(payload)
	if tag == nil {
		tag = a.computeMAC(a.hdr[1:a.hdrLen], payload)[:MACSize]
		if len(payload) > memoMax {
			a.rememberSealed(payload, tag)
		} else {
			a.remember(payload, tag)
		}
	}
	dst = append(dst, a.hdr[:a.hdrLen]...)
	dst = append(dst, tag...)
	return append(dst, payload...)
}

// AuthFrame is an authenticated envelope split into its parts, once, by
// SplitAuth. Epoch is the epoch the header claims: UNTRUSTED until the
// frame opens under that epoch's key (the epoch bytes are inside the
// MAC, so a lying header cannot verify). The switching layer reads it to
// pick the key, then opens the same split form.
type AuthFrame struct {
	Epoch uint64
	// header is the magic byte and the epoch bytes as they stand; tag
	// and payload follow them. All three are views of the packet.
	header, tag, payload []byte
}

// SplitAuth parses an envelope's header without verifying anything. It
// fails with ErrAuthFrame for input that is not structurally an
// envelope.
func SplitAuth(pkt []byte) (AuthFrame, error) {
	if len(pkt) < 1 || pkt[0] != authMagic {
		return AuthFrame{}, ErrAuthFrame
	}
	epoch, n := binary.Uvarint(pkt[1:])
	if n <= 0 || len(pkt) < 1+n+MACSize {
		return AuthFrame{}, ErrAuthFrame
	}
	return AuthFrame{
		Epoch:   epoch,
		header:  pkt[:1+n],
		tag:     pkt[1+n : 1+n+MACSize],
		payload: pkt[1+n+MACSize:],
	}, nil
}

// Open verifies and strips an envelope sealed under this sealer's epoch
// and key: SplitAuth, then OpenFrame. The returned payload aliases pkt.
func (a *AuthSealer) Open(pkt []byte) ([]byte, error) {
	f, err := SplitAuth(pkt)
	if err != nil {
		return nil, err
	}
	return a.OpenFrame(f)
}

// OpenFrame verifies a split envelope under this sealer's epoch and key
// and returns its payload, a view of the packet it was split from. An
// envelope claiming a different epoch fails with ErrAuth (its MAC cannot
// verify under this key); pick the sealer by f.Epoch first.
func (a *AuthSealer) OpenFrame(f AuthFrame) ([]byte, error) {
	if f.Epoch != a.epoch {
		return nil, ErrAuth
	}
	// The memo holds tags over this sealer's own header bytes; a
	// non-canonical encoding of the same epoch is MACed as it stands.
	canonical := subtle.ConstantTimeCompare(f.header, a.hdr[:a.hdrLen]) == 1
	if canonical {
		if tag := a.recall(f.payload); tag != nil {
			if subtle.ConstantTimeCompare(tag, f.tag) != 1 {
				return nil, ErrAuth
			}
			return f.payload, nil
		}
	}
	want := a.computeMAC(f.header[1:], f.payload)[:MACSize]
	if !hmac.Equal(want, f.tag) {
		return nil, ErrAuth
	}
	if canonical {
		a.remember(f.payload, want)
	}
	return f.payload, nil
}

// OpenAuth verifies and strips the authenticated envelope under the
// given per-epoch key. The returned payload aliases pkt, and is borrowed
// as pkt is. The MAC comparison is constant-time. OpenAuth never panics:
// any input that is not a well-formed envelope yields ErrAuthFrame, and
// any MAC mismatch yields ErrAuth.
func OpenAuth(key []byte, pkt []byte) ([]byte, error) {
	f, err := SplitAuth(pkt)
	if err != nil {
		return nil, err
	}
	want := MAC(key, f.header[1:], f.payload)
	if !hmac.Equal(want[:], f.tag) {
		return nil, ErrAuth
	}
	return f.payload, nil
}
