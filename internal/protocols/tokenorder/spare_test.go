package tokenorder

import (
	"fmt"
	"testing"

	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/protocols/ptest"
)

// countDown counts the frames sent through it and keeps none.
type countDown struct{ casts, sends int }

func (d *countDown) Cast([]byte) error             { d.casts++; return nil }
func (d *countDown) Send(ids.ProcID, []byte) error { d.sends++; return nil }

// TestQueueFlushAllocs: once warm, queueing casts while the token is away
// and flushing them when it arrives allocates nothing — one frame per
// message or one batch frame for the visit.
func TestQueueFlushAllocs(t *testing.T) {
	if ptest.RaceEnabled {
		t.Skip("the race detector makes the pooled frame encoders allocate")
	}
	for _, batch := range []bool{false, true} {
		t.Run(fmt.Sprintf("batch=%v", batch), func(t *testing.T) {
			l := New(Config{BatchFlush: batch})
			down := &countDown{}
			if err := l.Init(ptest.NewFakeEnv(1, 3), down, proto.UpFunc(func(ids.ProcID, []byte) {})); err != nil {
				t.Fatal(err)
			}
			payloads := [][]byte{[]byte("one"), []byte("a second, longer one"), []byte("three")}
			seq := uint64(0)
			got := testing.AllocsPerRun(1000, func() {
				for _, p := range payloads {
					if err := l.Cast(p); err != nil {
						t.Fatal(err)
					}
				}
				l.acquireToken(seq)
				l.passToken()
				seq += uint64(len(payloads))
			})
			if got != 0 {
				t.Errorf("a warm queue+flush allocates %v, want 0", got)
			}
			if l.QueueLen() != 0 || down.casts == 0 {
				t.Errorf("set-up: %d still queued, %d frames cast", l.QueueLen(), down.casts)
			}
		})
	}
}
