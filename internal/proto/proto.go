// Package proto defines the protocol-composition framework of §3 of the
// paper: a protocol is a module with a top and a bottom side; applications
// submit Send events at the top, the network delivers at the bottom, and
// the symmetry makes protocols "closed under composition — a stack of
// protocols is another protocol", composable like Lego blocks.
//
// A Layer exchanges raw byte payloads with its neighbours: going down it
// prepends its own header (package wire), going up it strips it. Every
// process in a group runs the same stack.
//
// One rule governs every payload that crosses a layer boundary, up or
// down: it is borrowed for the call. The callee reads it, and may hand it
// (or a part of it) on within the call; to keep it past the call, it
// copies it into its own buffers (wire.Spares) and gives them back once
// done. The caller may reuse, overwrite or recycle the bytes as soon as
// the call returns. Build with the tag contracts (package contract) to
// have the stack and the simulated network check the rule.
package proto

import (
	"errors"
	"math/rand"
	"time"

	"repro/internal/ids"
)

// ErrUnsupported is returned by layers asked for an operation they do not
// provide (e.g. point-to-point send through a multicast-only layer).
var ErrUnsupported = errors.New("proto: operation not supported by this layer")

// Timer is a cancellable scheduled callback, satisfied by both the
// discrete-event and the real-time runtimes.
type Timer interface {
	// Stop cancels the timer; it reports whether the call prevented the
	// timer from firing.
	Stop() bool
	// Active reports whether the timer is still pending.
	Active() bool
	// Reset re-arms the timer to run its callback d from now, whether it
	// is pending (the earlier arm is cancelled), has fired, or was
	// stopped. It is Stop followed by Env.After with the same callback,
	// without allocating a new handle.
	Reset(d time.Duration)
}

// Rearm is Env.After for a callback that is armed over and over — a
// periodic tick, a hold or service timer — reusing one handle instead of
// allocating one per arm. t is the handle the previous call returned (nil
// the first time) and fn must be the same callback every time. Rearm
// never cancels anything: while t is still pending it leaves that arm
// running and returns a fresh handle, exactly as a second After would, so
// replacing `t = env.After(d, fn)` by `t = Rearm(env, t, d, fn)` cannot
// change an execution.
func Rearm(env Env, t Timer, d time.Duration, fn func()) Timer {
	if t == nil || t.Active() {
		return env.After(d, fn)
	}
	t.Reset(d)
	return t
}

// Env provides the runtime services available to a layer at one process.
// Implementations exist for the discrete-event simulator (deterministic)
// and for a goroutine-based real-time runtime; protocol code cannot tell
// which it runs on.
type Env interface {
	// Self returns this process's identity.
	Self() ids.ProcID
	// Members returns the group membership (stable for an execution).
	// The slice may be shared between callers: read it, do not modify it.
	Members() []ids.ProcID
	// Ring returns the logical ring over the membership.
	Ring() *ids.Ring
	// Now returns the current time (virtual or wall-clock) since start.
	Now() time.Duration
	// After schedules fn to run once after d.
	After(d time.Duration, fn func()) Timer
	// Rand returns the process's random stream (seeded in simulation).
	Rand() *rand.Rand
}

// Down is a layer's handle to the layer beneath it (ultimately the
// network).
//
// A payload handed down is borrowed for the call: the caller may reuse
// or overwrite it as soon as Cast or Send returns. A layer below that
// keeps the payload — to retransmit it, queue it, or hand it up later —
// copies it into its own buffers, never keeping the caller's slice.
// Layers build frames in buffers from their own wire.Spares, and take
// them back when the call returns, on the strength of this rule.
type Down interface {
	// Cast multicasts payload to the whole group, including the caller's
	// own process (protocols rely on hearing their own multicasts).
	// payload is borrowed for the call.
	Cast(payload []byte) error
	// Send sends payload point-to-point to dst. payload is borrowed for
	// the call.
	Send(dst ids.ProcID, payload []byte) error
}

// Up is a layer's handle to the layer above it (ultimately the
// application).
type Up interface {
	// Deliver passes a payload up. src is the message's original sender
	// as reconstructed by the delivering layer. payload is borrowed for
	// the call and read-only: it is usually a view of the frame the
	// network delivered, which other receivers see too, and the network
	// recycles that frame once the call returns. A receiver that keeps
	// the payload, whole or in part, copies it into its own buffers.
	Deliver(src ids.ProcID, payload []byte)
}

// UpFunc adapts a function to the Up interface.
type UpFunc func(src ids.ProcID, payload []byte)

// Deliver implements Up.
func (f UpFunc) Deliver(src ids.ProcID, payload []byte) { f(src, payload) }

var _ Up = UpFunc(nil)

// Layer is one protocol in a stack. Lifecycle: construct, Init exactly
// once, then any number of Cast/Send (from above) and Recv (from below)
// calls, then Stop.
type Layer interface {
	// Init wires the layer between its neighbours.
	Init(env Env, down Down, up Up) error
	// Cast handles a multicast request from the layer above. payload is
	// borrowed for the call (see Down): a layer that keeps it, or hands
	// it up, keeps a copy.
	Cast(payload []byte) error
	// Send handles a point-to-point request from the layer above, under
	// the same rule as Cast. Layers without point-to-point semantics
	// return ErrUnsupported.
	Send(dst ids.ProcID, payload []byte) error
	// Recv handles a payload arriving from the layer below; src is the
	// sender as reported by that layer. Same contract as Up.Deliver:
	// payload is read-only, may be shared, and is borrowed for the call.
	// Stripping a header is a reslice; a layer copies only what it keeps
	// past the call (into its wire.Spares, see Reorder's Keeper) and
	// never writes to what it was handed.
	Recv(src ids.ProcID, payload []byte)
	// Stop cancels timers and releases resources. Idempotent.
	Stop()
}

// EpochAware is implemented by layers whose state is keyed to the
// switching protocol's epoch counter (per-epoch MAC keys, replay
// windows that must survive a protocol switch). The switching layer
// calls SetEpoch on every sub-stack each time its delivery epoch
// advances; epochs are monotonically non-decreasing. Layers that do not
// implement the interface are unaffected.
type EpochAware interface {
	SetEpoch(epoch uint64)
}
