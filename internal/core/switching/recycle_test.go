package switching_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core/switching"
	"repro/internal/core/switching/swtest"
	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/protocols/fifo"
	"repro/internal/protocols/seqorder"
	"repro/internal/protocols/tokenorder"
	"repro/internal/simnet"
)

// TestDeliveriesSurviveRecycledFrames: every layer that keeps a frame —
// the overload queues, tokenorder's queue, fifo's retransmission rings,
// the reorder buffers and Switch.buffer — keeps a copy in a recycled
// buffer, and the network recycles every frame once its deliveries have
// returned. In a lossy run with switches, where those buffers are
// refilled many times over with other frames, every delivery reads, in
// its call, a body that was cast, and each body is delivered once to
// every member. Each member also casts from one buffer it overwrites
// after every Cast, as the borrowing rule allows.
func TestDeliveriesSurviveRecycledFrames(t *testing.T) {
	var delivered []string
	cfg := switching.Config{
		TokenInterval: 2 * time.Millisecond,
		Protocols: []switching.ProtocolFactory{
			func(proto.Env) []proto.Layer {
				return []proto.Layer{seqorder.New(0), fifo.New(fifo.Config{})}
			},
			func(proto.Env) []proto.Layer {
				return []proto.Layer{tokenorder.New(tokenorder.Config{HoldDelay: time.Millisecond, BatchFlush: true}), fifo.New(fifo.Config{})}
			},
		},
		Overload: &switching.OverloadConfig{
			IngressQueueCap: 64, EgressQueueCap: 64, ServiceInterval: 200 * time.Microsecond, BatchMax: 4,
		},
	}
	const n, perMember = 4, 60
	body := func(p, i int) string { return fmt.Sprintf("m%d.%03d-%x", p, i, i*i) }
	c, err := swtest.NewSwitchedWithApp(11, simnet.Config{Nodes: n, PropDelay: 200 * time.Microsecond}, n, cfg,
		func(*swtest.SwitchedMember, *des.Sim) proto.Up {
			return proto.UpFunc(func(_ ids.ProcID, p []byte) { delivered = append(delivered, string(p)) })
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Net.SetFaults(0.05, 0, 0); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		var buf []byte
		for i := 0; i < perMember; i++ {
			p, i := p, i
			c.Sim.At(time.Duration(i)*time.Millisecond, func() {
				buf = append(buf[:0], body(p, i)...)
				_ = c.Cast(ids.ProcID(p), buf)
				copy(buf, "scribbled")
			})
		}
	}
	for _, at := range []time.Duration{15, 35} {
		c.Sim.At(at*time.Millisecond, func() { c.Members[1].Switch.RequestSwitch() })
	}
	c.Run(3 * time.Second)
	c.Stop()
	if want := n * perMember * n; len(delivered) != want {
		t.Fatalf("%d deliveries, want %d", len(delivered), want)
	}
	if recs := c.Members[1].Switch.Records(); len(recs) != 2 {
		t.Fatalf("set-up: member 1 ran %d switches, want 2", len(recs))
	}
	times := map[string]int{}
	for _, d := range delivered {
		times[d]++
	}
	for p := 0; p < n; p++ {
		for i := 0; i < perMember; i++ {
			if body := body(p, i); times[body] != n {
				t.Fatalf("%q was delivered %d times, want %d", body, times[body], n)
			}
		}
	}
}
