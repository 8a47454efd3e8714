// Package integrity implements the Integrity property of Table 1 of the
// paper — "messages cannot be forged; they are sent by trusted
// processes" — as an HMAC-SHA256 authentication layer. Trusted processes
// share a group key; a payload whose MAC does not verify is dropped
// before it can reach the layers above.
//
// Integrity satisfies all six meta-properties (§5–6), so it is preserved
// by the switching protocol; the integration tests in the switching
// package exercise exactly that.
package integrity

import (
	"crypto/hmac"
	"fmt"

	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Layer authenticates every payload through it.
type Layer struct {
	key  []byte
	env  proto.Env
	down proto.Down
	up   proto.Up
	// Epoch-keyed mode (NewEpoch): the MAC key is derived per switching
	// epoch from key via wire.DeriveEpochKey, rolled by SetEpoch.
	epochKeyed bool
	epoch      uint64
	epochKeys  map[uint64][]byte
	// rejected counts dropped forgeries (metrics/test hook).
	rejected uint64
	// staleRejected counts payloads that carried a structurally valid
	// MAC but verified under no key in the current acceptance window —
	// in epoch-keyed mode this is where cross-epoch replays land.
	staleRejected uint64
}

var _ proto.Layer = (*Layer)(nil)

// New creates an integrity layer keyed with the group key. Processes
// holding a different key (or none) are the model's "untrusted"
// processes: nothing they send verifies at trusted receivers.
func New(key []byte) *Layer {
	k := make([]byte, len(key))
	copy(k, key)
	return &Layer{key: k}
}

// NewEpoch creates an integrity layer whose MAC key is derived per
// switching epoch from the session key (wire.DeriveEpochKey) and rolled
// by the switching layer through proto.EpochAware. Receivers accept the
// current epoch and its two neighbours (frames legitimately in flight
// across a key roll); anything older fails verification — so a payload
// recorded under one epoch cannot be replayed after the group has moved
// on, even when the same protocol becomes active again at a later
// epoch. This is the "replay window survives the switch" half of the
// mpENC-style session; compare noreplay.NewShared for the exact-dup
// half.
func NewEpoch(sessionKey []byte) *Layer {
	l := New(sessionKey)
	l.epochKeyed = true
	l.epochKeys = make(map[uint64][]byte)
	return l
}

// SetEpoch implements proto.EpochAware: roll the MAC key to the given
// (monotonically non-decreasing) switching epoch. A no-op for layers
// built with New.
func (l *Layer) SetEpoch(epoch uint64) {
	if !l.epochKeyed || epoch <= l.epoch {
		return
	}
	l.epoch = epoch
	for e := range l.epochKeys {
		if e+1 < epoch {
			delete(l.epochKeys, e)
		}
	}
}

var _ proto.EpochAware = (*Layer)(nil)

// macKey returns the MAC key for an epoch (the static group key when
// not epoch-keyed).
func (l *Layer) macKey(epoch uint64) []byte {
	if !l.epochKeyed {
		return l.key
	}
	if k, ok := l.epochKeys[epoch]; ok {
		return k
	}
	k := wire.DeriveEpochKey(l.key, epoch)
	l.epochKeys[epoch] = k
	return k
}

// Init implements proto.Layer.
func (l *Layer) Init(env proto.Env, down proto.Down, up proto.Up) error {
	if env == nil || down == nil || up == nil {
		return fmt.Errorf("integrity: nil wiring")
	}
	if len(l.key) == 0 {
		return fmt.Errorf("integrity: empty key")
	}
	l.env, l.down, l.up = env, down, up
	return nil
}

// Stop implements proto.Layer.
func (l *Layer) Stop() {}

// Rejected returns the number of payloads dropped for MAC failure
// (including stale-epoch rejections).
func (l *Layer) Rejected() uint64 { return l.rejected }

// StaleRejected returns how many of the rejected payloads carried a
// well-formed MAC that verified under no key in the acceptance window —
// cross-epoch replays, in epoch-keyed mode.
func (l *Layer) StaleRejected() uint64 { return l.staleRejected }

func (l *Layer) seal(payload []byte) []byte {
	sum := wire.MAC(l.macKey(l.epoch), nil, payload)
	e := wire.NewEncoder(wire.MACSize + 2)
	e.BytesField(sum[:])
	return e.Prepend(payload)
}

// Cast implements proto.Layer.
func (l *Layer) Cast(payload []byte) error {
	return l.down.Cast(l.seal(payload))
}

// Send implements proto.Layer.
func (l *Layer) Send(dst ids.ProcID, payload []byte) error {
	return l.down.Send(dst, l.seal(payload))
}

// Recv implements proto.Layer: verify and strip the MAC, dropping
// forgeries. In epoch-keyed mode the acceptance window is the current
// epoch and its immediate neighbours — a frame sealed just before the
// sender rolled (epoch-1) or by a sender that rolled first (epoch+1)
// still verifies; anything further is rejected as stale.
func (l *Layer) Recv(src ids.ProcID, pkt []byte) {
	d := wire.NewDecoder(pkt)
	sum := d.BytesField()
	if d.Err() != nil || len(sum) != wire.MACSize {
		l.rejected++
		return
	}
	payload := d.Remaining()
	if !l.epochKeyed {
		if want := wire.MAC(l.key, nil, payload); !hmac.Equal(sum, want[:]) {
			l.rejected++
			return
		}
		l.up.Deliver(src, payload)
		return
	}
	candidates := [3]uint64{l.epoch, l.epoch + 1, l.epoch - 1}
	n := 3
	if l.epoch == 0 {
		n = 2
	}
	for _, e := range candidates[:n] {
		if want := wire.MAC(l.macKey(e), nil, payload); hmac.Equal(sum, want[:]) {
			l.up.Deliver(src, payload)
			return
		}
	}
	l.rejected++
	l.staleRejected++
}
