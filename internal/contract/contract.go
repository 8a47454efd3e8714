// Package contract holds the run-time checks of the one buffer rule the
// message path is built on: a payload that crosses a layer boundary, up
// or down, is borrowed for the call. A callee that keeps it copies it
// into its own buffers (wire.Spares); the caller may reuse or recycle
// the bytes as soon as the call returns.
//
// The checks cost a copy or a checksum per frame, so they are compiled
// in only under the build tag contracts:
//
//	go test -tags contracts ./...
//
// Without the tag Enabled is a false constant, every check is dead code,
// and no path or allocation changes.
package contract

import "repro/internal/wire"

// PoisonByte is what a checked buffer is filled with once its borrow
// ends: a layer that kept a view reads it, not the bytes it was lent.
const PoisonByte = 0xA5

// Poison fills b, to its capacity, with PoisonByte.
func Poison(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = PoisonByte
	}
}

// Lend calls f with a private copy of payload and poisons the copy when
// f returns: the callee sees the caller's bytes for the call and nothing
// after it. The copy comes from the caller's spares and goes back to
// them, so a checked build keeps the allocation profile of an unchecked
// one.
func Lend(spare *wire.Spares, payload []byte, f func([]byte) error) error {
	p := spare.Copy(payload)
	err := f(p)
	Poison(p)
	spare.Put(p)
	return err
}
