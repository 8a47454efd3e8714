package switching

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
)

// lastCast keeps a copy of the latest cast sent through it, in one
// reused buffer: a Down that copies what it keeps.
type lastCast struct {
	frame []byte
	casts int
}

func (d *lastCast) Cast(p []byte) error {
	d.frame = append(d.frame[:0], p...)
	d.casts++
	return nil
}

func (d *lastCast) Send(ids.ProcID, []byte) error { return nil }

// TestEgressAdmitDrainAllocs: once warm, admitting casts to the egress
// queue and draining them to the protocol on the service tick allocates
// nothing — a drained cast's frame carries the next admitted one — and
// the protocol sees each cast's epoch frame.
func TestEgressAdmitDrainAllocs(t *testing.T) {
	env := newFakeEnv(0, 3)
	down := &lastCast{}
	stack, err := proto.Build(env, proto.UpFunc(func(ids.ProcID, []byte) {}), down)
	if err != nil {
		t.Fatal(err)
	}
	s := &Switch{env: env, obs: obs.OrNop(nil), members: env.Members(), protos: []*proto.Stack{stack},
		sent: map[uint64]uint64{}, sendEpoch: 2}
	s.ovl = newOverload(s, OverloadConfig{EgressQueueCap: 16, ServiceInterval: time.Millisecond, BatchMax: 4})
	payloads := [][]byte{[]byte("one"), []byte("a second, longer one"), []byte("three")}
	got := testing.AllocsPerRun(1000, func() {
		for _, p := range payloads {
			if err := s.ovl.admitCast(p); err != nil {
				t.Fatal(err)
			}
		}
		env.run() // the service tick drains all three
	})
	if got != 0 {
		t.Errorf("a warm admit+drain allocates %v, want 0", got)
	}
	a := s.ovl.accounting()
	if a.EgressSent != 3*1001 || a.EgressQueued != 0 || down.casts != 3*1001 {
		t.Errorf("ledger %+v, %d casts reached the protocol; want all %d sent", a, down.casts, 3*1001)
	}
	if want := append(binary.AppendUvarint(nil, 2), "three"...); string(down.frame) != string(want) {
		t.Errorf("the last frame drained reads %q, want %q", down.frame, want)
	}
}
