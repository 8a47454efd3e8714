package ptest

import (
	"math/rand"
	"time"

	"repro/internal/ids"
	"repro/internal/proto"
)

// FakeEnv is a minimal in-memory proto.Env for layer unit tests that do
// not need a simulated network.
type FakeEnv struct {
	Me    ids.ProcID
	Group []ids.ProcID
	ring  *ids.Ring
	rng   *rand.Rand
	Clock time.Duration
}

var _ proto.Env = (*FakeEnv)(nil)

// NewFakeEnv returns a FakeEnv for process self in a group of size n.
func NewFakeEnv(self ids.ProcID, n int) *FakeEnv {
	ring, err := ids.NewRing(ids.Procs(n))
	if err != nil {
		panic(err) // test-only constructor with valid-by-construction args
	}
	return &FakeEnv{
		Me:    self,
		Group: ids.Procs(n),
		ring:  ring,
		rng:   rand.New(rand.NewSource(1)),
	}
}

// Self implements proto.Env.
func (e *FakeEnv) Self() ids.ProcID { return e.Me }

// Members implements proto.Env.
func (e *FakeEnv) Members() []ids.ProcID { return e.Group }

// Ring implements proto.Env.
func (e *FakeEnv) Ring() *ids.Ring { return e.ring }

// Now implements proto.Env.
func (e *FakeEnv) Now() time.Duration { return e.Clock }

// After implements proto.Env; the timer never fires.
func (e *FakeEnv) After(time.Duration, func()) proto.Timer { return NopTimer{} }

// Rand implements proto.Env.
func (e *FakeEnv) Rand() *rand.Rand { return e.rng }

// NopTimer is an inert proto.Timer.
type NopTimer struct{}

// Stop implements proto.Timer.
func (NopTimer) Stop() bool { return false }

// Active implements proto.Timer.
func (NopTimer) Active() bool { return false }

// Reset implements proto.Timer.
func (NopTimer) Reset(time.Duration) {}

// RecordDown records everything pushed through it.
type RecordDown struct {
	Casts [][]byte
	Sends []struct {
		Dst     ids.ProcID
		Payload []byte
	}
}

var _ proto.Down = (*RecordDown)(nil)

// Cast implements proto.Down.
func (d *RecordDown) Cast(payload []byte) error {
	d.Casts = append(d.Casts, append([]byte(nil), payload...))
	return nil
}

// Send implements proto.Down.
func (d *RecordDown) Send(dst ids.ProcID, payload []byte) error {
	d.Sends = append(d.Sends, struct {
		Dst     ids.ProcID
		Payload []byte
	}{dst, append([]byte(nil), payload...)})
	return nil
}

// RecordUp records deliveries.
type RecordUp struct {
	Deliveries []Delivery
}

var _ proto.Up = (*RecordUp)(nil)

// Deliver implements proto.Up.
func (u *RecordUp) Deliver(src ids.ProcID, payload []byte) {
	u.Deliveries = append(u.Deliveries, Delivery{Src: src, Payload: append([]byte(nil), payload...)})
}

// Bodies returns delivered payloads as strings.
func (u *RecordUp) Bodies() []string {
	var out []string
	for _, d := range u.Deliveries {
		out = append(out, string(d.Payload))
	}
	return out
}
