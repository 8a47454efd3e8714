// Package priority implements the Prioritized Delivery property of
// Table 1 of the paper — "the master process always delivers a message
// before any one else". Non-master receivers hold each message until the
// master announces it has delivered it.
//
// Prioritized Delivery is the paper's example of a property that is
// *not asynchronous* (§5.2): it constrains the relative order of events
// at different processes, an order that layering delays — and the
// switching protocol — cannot preserve. The switching package's tests
// demonstrate the violation.
package priority

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/wire"
)

const (
	// kindData carries an application payload.
	kindData uint8 = iota + 1
	// kindRelease announces that the master delivered a payload digest.
	kindRelease
)

type digest = [sha256.Size]byte

// Layer enforces master-first delivery.
type Layer struct {
	master ids.ProcID
	env    proto.Env
	down   proto.Down
	up     proto.Up

	// Non-master state: payloads waiting for the master's release, in
	// arrival order — copies, in buffers from spare, which each gets back
	// once delivered — and the set of already-released digests.
	waiting  []held
	spare    wire.Spares
	released map[digest]bool
}

type held struct {
	src     ids.ProcID
	key     digest
	payload []byte
}

var _ proto.Layer = (*Layer)(nil)

// New creates a prioritized-delivery layer with the given master.
func New(master ids.ProcID) *Layer {
	return &Layer{master: master, released: make(map[digest]bool)}
}

// Init implements proto.Layer.
func (l *Layer) Init(env proto.Env, down proto.Down, up proto.Up) error {
	if env == nil || down == nil || up == nil {
		return fmt.Errorf("priority: nil wiring")
	}
	if !env.Ring().Contains(l.master) {
		return fmt.Errorf("priority: master %v is not a group member", l.master)
	}
	l.env, l.down, l.up = env, down, up
	return nil
}

// Stop implements proto.Layer.
func (l *Layer) Stop() {}

// Waiting returns the number of messages held for master release.
func (l *Layer) Waiting() int { return len(l.waiting) }

// Cast implements proto.Layer.
func (l *Layer) Cast(payload []byte) error {
	e := wire.NewEncoder(2)
	e.U8(kindData)
	return l.down.Cast(e.Prepend(payload))
}

// Send implements proto.Layer: not part of this protocol.
func (l *Layer) Send(ids.ProcID, []byte) error { return proto.ErrUnsupported }

// Recv implements proto.Layer.
func (l *Layer) Recv(src ids.ProcID, pkt []byte) {
	d := wire.NewDecoder(pkt)
	switch d.U8() {
	case kindData:
		if d.Err() != nil {
			return
		}
		payload := d.Remaining()
		key := sha256.Sum256(payload)
		if l.env.Self() == l.master {
			// The master delivers immediately and releases the others.
			l.up.Deliver(src, payload)
			e := wire.NewEncoder(sha256.Size + 4)
			e.U8(kindRelease).BytesField(key[:])
			_ = l.down.Cast(e.Bytes())
			return
		}
		if l.released[key] {
			delete(l.released, key)
			l.up.Deliver(src, payload)
			return
		}
		l.waiting = append(l.waiting, held{src: src, key: key, payload: l.spare.Copy(payload)})
	case kindRelease:
		sum := d.BytesField()
		if d.Err() != nil || len(sum) != sha256.Size || src != l.master {
			return
		}
		var key digest
		copy(key[:], sum)
		if l.env.Self() == l.master {
			return // the master's own release loops back; ignore
		}
		for i, h := range l.waiting {
			if h.key == key {
				l.waiting = append(l.waiting[:i], l.waiting[i+1:]...)
				l.up.Deliver(h.src, h.payload)
				l.spare.Put(h.payload)
				return
			}
		}
		// Release raced ahead of the data; remember it.
		l.released[key] = true
	}
}
