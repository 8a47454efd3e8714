package chaos

import (
	"hash/crc32"
	"testing"
	"time"

	"repro/internal/contract"
	"repro/internal/core/switching"
	"repro/internal/core/switching/swtest"
	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/protocols/fifo"
	"repro/internal/protocols/seqorder"
	"repro/internal/protocols/tokenorder"
	"repro/internal/simnet"
)

// frameGuard holds simnet to its delivery contract from the receivers'
// side. A delivered payload is borrowed for the call, read-only, and may
// be the very frame every other receiver of the transmission is handed
// (DESIGN §2.2), so one layer decoding in place would corrupt its
// neighbours' deliveries. The guard sits between the network and every
// member's stack, checksums each buffer as it is delivered, and checks
// it again when the receiving call returns — the end of the borrow,
// after which the network recycles the frame. Test code only: the
// production path has no such check (a contracts build has its own, in
// simnet).
type frameGuard struct {
	delivered int
	damaged   []guardedFrame
}

// guardedFrame is a delivery whose bytes changed during its call.
type guardedFrame struct {
	dst, src ids.ProcID
	n        int
}

// wrap returns dst's handler recv under the guard.
func (g *frameGuard) wrap(dst ids.ProcID, recv simnet.Handler) simnet.Handler {
	return func(src ids.ProcID, b []byte) {
		sum := crc32.ChecksumIEEE(b)
		recv(src, b)
		g.delivered++
		if crc32.ChecksumIEEE(b) != sum {
			g.damaged = append(g.damaged, guardedFrame{dst: dst, src: src, n: len(b)})
		}
	}
}

// attach rebinds every member's network handler through the guard.
func (g *frameGuard) attach(t *testing.T, c *swtest.SwitchedCluster) {
	t.Helper()
	for _, m := range c.Members {
		if err := c.Net.Bind(m.Node.Self(), g.wrap(m.Node.Self(), m.Switch.Recv)); err != nil {
			t.Fatal(err)
		}
	}
}

func (g *frameGuard) verify(t *testing.T) {
	t.Helper()
	if g.delivered == 0 {
		t.Fatal("the guard saw no delivery; it is not on the path")
	}
	for i, f := range g.damaged {
		if i == 5 {
			break
		}
		t.Errorf("the %d bytes delivered %v -> %v were written to during delivery", f.n, f.src, f.dst)
	}
	if len(g.damaged) > 0 {
		t.Errorf("%d of %d delivered buffers were written to: some layer decodes in place", len(g.damaged), g.delivered)
	}
}

// guardedTraffic runs senders casting every gap, with a switch requested
// every 500 ms, for d of virtual time on a guarded cluster; the run must
// cross switches with new-epoch traffic buffered.
func guardedTraffic(t *testing.T, netCfg simnet.Config, swCfg switching.Config, senders int, gap, d time.Duration) {
	t.Helper()
	c, err := swtest.NewSwitched(1, netCfg, netCfg.Nodes, swCfg)
	if err != nil {
		t.Fatal(err)
	}
	var g frameGuard
	g.attach(t, c)
	body := make([]byte, 256)
	for at, i := time.Duration(0), 0; at < d; at, i = at+gap, i+1 {
		i := i
		c.Sim.At(at, func() {
			for p := 0; p < senders; p++ {
				m := proto.AppMsg{ID: proto.MakeMsgID(ids.ProcID(p), uint32(i)), Sender: ids.ProcID(p), Body: body}
				if err := c.Cast(ids.ProcID(p), m.Encode()); err != nil {
					t.Error(err)
				}
			}
		})
	}
	for at := 500 * time.Millisecond; at < d; at += 500 * time.Millisecond {
		c.Sim.At(at, func() { c.Members[0].Switch.RequestSwitch() })
	}
	c.Run(d + time.Second)
	c.Stop()
	if got := c.Members[0].Switch.Stats().SwitchesCompleted; got < 2 {
		t.Errorf("%d switches completed; the run is meant to cross protocols", got)
	}
	// The copies a stack keeps — new-epoch messages held in Switch.buffer
	// until a switch completes, frames waiting in the overload ingress
	// queue — are taken under the guard only if the run holds some.
	var buffered uint64
	queued := 0
	for _, m := range c.Members {
		buffered += m.Switch.Stats().Buffered
		queued = max(queued, m.Switch.OverloadAccounting().IngressMaxDepth)
	}
	if buffered == 0 || (swCfg.Overload != nil && queued < 2) {
		t.Errorf("%d messages buffered across a switch, ingress depth %d: the run retains no view to guard", buffered, queued)
	}
	want := senders * int((d+gap-1)/gap)
	for _, m := range c.Members {
		if len(m.Delivered) != want {
			t.Errorf("member %v delivered %d of %d", m.Node.Self(), len(m.Delivered), want)
		}
	}
	g.verify(t)
}

func guardedProtocols(batchFlush bool) []switching.ProtocolFactory {
	return []switching.ProtocolFactory{
		func(proto.Env) []proto.Layer {
			return []proto.Layer{seqorder.New(0), fifo.New(fifo.Config{})}
		},
		func(proto.Env) []proto.Layer {
			return []proto.Layer{
				tokenorder.New(tokenorder.Config{HoldDelay: time.Millisecond, BatchFlush: batchFlush}),
				fifo.New(fifo.Config{}),
			}
		},
	}
}

// TestStackNeverWritesDeliveredBytes drives the guard over the stacks the
// benchmark measures and over composed-fault chaos schedules.
func TestStackNeverWritesDeliveredBytes(t *testing.T) {
	t.Run("paper-exact", func(t *testing.T) {
		// §7's set-up: plain frames on the shared 10 Mbit Ethernet, where a
		// multicast reaches all ten members as one frame.
		guardedTraffic(t, simnet.Ethernet10Mbit(10), switching.PaperExact(guardedProtocols(false)...),
			5, 50*time.Millisecond, 3*time.Second)
	})
	t.Run("all-on", func(t *testing.T) {
		// Authenticated envelope, batching under overload control, recovery
		// with the adaptive detector: every layer that opens, unpacks or
		// re-frames received bytes is on the path.
		netCfg := simnet.Config{
			Nodes: 6, PropDelay: 50 * time.Microsecond, BitsPerSecond: 100e6, FrameOverhead: 64,
			RecvCPU: 20 * time.Microsecond, SendCPU: 10 * time.Microsecond,
		}
		swCfg := switching.Hardened([]byte("guard session key"), guardedProtocols(true)...)
		guardedTraffic(t, netCfg, swCfg, 3, 2*time.Millisecond, 2*time.Second)
	})
	t.Run("chaos", func(t *testing.T) {
		// Corruption, forgery and replay, flash crowd and gray failures in
		// one schedule: the rejection, repair and shedding paths, and the
		// one network path that does write — into its own copy.
		gen := GenConfig{Corruption: true, Forgery: true, FlashCrowd: true, GrayFailure: true}
		for seed := int64(1); seed <= 6; seed++ {
			sched, err := Generate(seed, gen)
			if err != nil {
				t.Fatal(err)
			}
			var g frameGuard
			res, _, err := run(sched, RunConfig{}, func(c *swtest.SwitchedCluster) { g.attach(t, c) })
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed() {
				t.Errorf("seed %d: %v", seed, res.Violations)
			}
			g.verify(t)
		}
	})
}

// TestFrameGuardCatchesAWrite: the guard is only worth its name if a
// receiver that does scribble fails it.
func TestFrameGuardCatchesAWrite(t *testing.T) {
	c, err := swtest.NewSwitched(1, simnet.Ethernet10Mbit(4), 4, switching.PaperExact(guardedProtocols(false)...))
	if err != nil {
		t.Fatal(err)
	}
	var g frameGuard
	g.attach(t, c)
	scribbles := 0
	if err := c.Net.Bind(3, g.wrap(3, func(_ ids.ProcID, b []byte) {
		if len(b) > 0 {
			b[0] ^= 0xFF // an in-place decode; of a multicast, on the frame members 0-2 are handed too
			scribbles++
		}
	})); err != nil {
		t.Fatal(err)
	}
	if err := c.Cast(0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	caught := func() (msg any) {
		defer func() { msg = recover() }()
		c.Run(50 * time.Millisecond)
		return nil
	}()
	c.Stop()
	switch {
	case contract.Enabled && caught == nil:
		t.Error("a contracts build ran a write to a delivered frame without a panic")
	case !contract.Enabled && caught != nil:
		panic(caught)
	}
	if scribbles == 0 || len(g.damaged) != scribbles {
		t.Errorf("%d scribbles but the guard reports %d damaged of %d deliveries", scribbles, len(g.damaged), g.delivered)
	}
}
