package arq

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core/switching"
	"repro/internal/core/switching/swtest"
	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/protocols/ptest"
	"repro/internal/simnet"
)

func p2p(t *testing.T, seed int64, cfg simnet.Config, mk func() proto.Layer) *ptest.Cluster {
	t.Helper()
	c, err := ptest.New(seed, cfg, 2, func(proto.Env) []proto.Layer {
		return []proto.Layer{mk()}
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func eachProtocol(t *testing.T, f func(t *testing.T, name string, mk func() proto.Layer)) {
	t.Run("stopwait", func(t *testing.T) {
		f(t, "stopwait", func() proto.Layer { return NewStopAndWait(20 * time.Millisecond) })
	})
	t.Run("gobackn", func(t *testing.T) {
		f(t, "gobackn", func() proto.Layer { return NewGoBackN(8, 20*time.Millisecond) })
	})
	t.Run("selectiverepeat", func(t *testing.T) {
		f(t, "selectiverepeat", func() proto.Layer { return NewSelectiveRepeat(8, 20*time.Millisecond) })
	})
}

func TestReliableFIFODelivery(t *testing.T) {
	eachProtocol(t, func(t *testing.T, name string, mk func() proto.Layer) {
		cfg := simnet.Config{Nodes: 2, PropDelay: time.Millisecond}
		c := p2p(t, 1, cfg, mk)
		const n = 10
		for i := 0; i < n; i++ {
			if err := c.Members[0].Stack.Send(1, []byte(fmt.Sprintf("m%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		c.Run(5 * time.Second)
		c.Stop()
		got := c.Bodies(1)
		if len(got) != n {
			t.Fatalf("%s delivered %d/%d", name, len(got), n)
		}
		for i, b := range got {
			if b != fmt.Sprintf("m%02d", i) {
				t.Fatalf("%s order violated: %v", name, got)
			}
		}
	})
}

func TestRecoveryFromLoss(t *testing.T) {
	eachProtocol(t, func(t *testing.T, name string, mk func() proto.Layer) {
		cfg := simnet.Config{Nodes: 2, PropDelay: time.Millisecond}
		c := p2p(t, 7, cfg, mk)
		if err := c.Net.SetFaults(0.3, 0, 0); err != nil {
			t.Fatal(err)
		}
		const n = 20
		for i := 0; i < n; i++ {
			if err := c.Members[0].Stack.Send(1, []byte(fmt.Sprintf("m%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		c.Run(30 * time.Second)
		c.Stop()
		got := c.Bodies(1)
		if len(got) != n {
			t.Fatalf("%s delivered %d/%d under 30%% loss", name, len(got), n)
		}
		for i, b := range got {
			if b != fmt.Sprintf("m%02d", i) {
				t.Fatalf("%s order violated under loss: %v", name, got)
			}
		}
	})
}

func TestRecoveryFromDuplication(t *testing.T) {
	eachProtocol(t, func(t *testing.T, name string, mk func() proto.Layer) {
		cfg := simnet.Config{Nodes: 2, PropDelay: time.Millisecond}
		c := p2p(t, 3, cfg, mk)
		if err := c.Net.SetFaults(0, 0.4, 0); err != nil {
			t.Fatal(err)
		}
		const n = 15
		for i := 0; i < n; i++ {
			if err := c.Members[0].Stack.Send(1, []byte(fmt.Sprintf("m%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		c.Run(10 * time.Second)
		c.Stop()
		if got := c.Bodies(1); len(got) != n {
			t.Fatalf("%s delivered %d, want exactly %d", name, len(got), n)
		}
	})
}

func TestCastLoopsBackAndReachesPeer(t *testing.T) {
	eachProtocol(t, func(t *testing.T, name string, mk func() proto.Layer) {
		cfg := simnet.Config{Nodes: 2, PropDelay: time.Millisecond}
		c := p2p(t, 1, cfg, mk)
		if err := c.Cast(0, []byte("both")); err != nil {
			t.Fatal(err)
		}
		c.Run(time.Second)
		c.Stop()
		for p := 0; p < 2; p++ {
			if got := c.Bodies(ids.ProcID(p)); len(got) != 1 || got[0] != "both" {
				t.Fatalf("%s member %d got %v", name, p, got)
			}
		}
	})
}

// TestCastLoopbackOwnsItsCopy: the loopback delivery of a cast may be
// kept by the layer above, and the caller may reuse its buffer once Cast
// returns — so what was delivered must not change when it does.
func TestCastLoopbackOwnsItsCopy(t *testing.T) {
	eachProtocol(t, func(t *testing.T, name string, mk func() proto.Layer) {
		var kept [][]byte
		c, err := ptest.NewWithApp(1, simnet.Config{Nodes: 2, PropDelay: time.Millisecond}, 2,
			func(proto.Env) []proto.Layer { return []proto.Layer{mk()} },
			func(m *ptest.Member, _ *des.Sim) proto.Up {
				return proto.UpFunc(func(_ ids.ProcID, p []byte) {
					if m.Node.Self() == 0 {
						kept = append(kept, p)
					}
				})
			})
		if err != nil {
			t.Fatal(err)
		}
		buf := []byte("first")
		if err := c.Cast(0, buf); err != nil {
			t.Fatal(err)
		}
		copy(buf, "XXXXX")
		if err := c.Cast(0, buf); err != nil {
			t.Fatal(err)
		}
		copy(buf, "YYYYY")
		c.Run(time.Second)
		c.Stop()
		if len(kept) != 2 || string(kept[0]) != "first" || string(kept[1]) != "XXXXX" {
			t.Errorf("%s: the sender's kept deliveries read %q, want [first XXXXX]", name, kept)
		}
	})
}

// TestThroughputTradeoff pins the protocols' defining difference on a
// high-latency link: stop-and-wait is limited to one frame per RTT;
// go-back-N pipelines.
func TestThroughputTradeoff(t *testing.T) {
	run := func(mk func() proto.Layer) int {
		cfg := simnet.Config{Nodes: 2, PropDelay: 10 * time.Millisecond}
		c := p2p(t, 1, cfg, mk)
		const n = 50
		for i := 0; i < n; i++ {
			if err := c.Members[0].Stack.Send(1, []byte(fmt.Sprintf("m%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		c.Run(200 * time.Millisecond) // ~10 RTTs
		got := len(c.Bodies(1))
		c.Stop()
		return got
	}
	sw := run(func() proto.Layer { return NewStopAndWait(100 * time.Millisecond) })
	gbn := run(func() proto.Layer { return NewGoBackN(16, 100*time.Millisecond) })
	// Stop-and-wait: ~1 frame per 20ms RTT → ~10 frames in 200ms.
	if sw > 15 {
		t.Errorf("stop-and-wait delivered %d in 10 RTTs — should be RTT-bound", sw)
	}
	if gbn < 3*sw {
		t.Errorf("go-back-N (%d) should dominate stop-and-wait (%d) on a fat pipe", gbn, sw)
	}
}

// TestSwitchableP2PChannel is the §1 specialization: a two-member group
// under the token-ring SP switches its link protocol mid-stream.
func TestSwitchableP2PChannel(t *testing.T) {
	protos := []switching.ProtocolFactory{
		func(proto.Env) []proto.Layer {
			return []proto.Layer{NewStopAndWait(20 * time.Millisecond)}
		},
		func(proto.Env) []proto.Layer {
			return []proto.Layer{NewGoBackN(8, 20*time.Millisecond)}
		},
	}
	c, err := swtest.NewSwitched(9, simnet.Config{Nodes: 2, PropDelay: time.Millisecond}, 2,
		switching.Config{Protocols: protos, TokenInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cast := func(i int) {
		m := proto.AppMsg{ID: proto.MakeMsgID(0, uint32(i)), Sender: 0, Body: []byte(fmt.Sprintf("m%02d", i))}
		if err := c.Members[0].Switch.Cast(m.Encode()); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 5; i++ {
		i := i
		c.Sim.At(time.Duration(i+1)*4*time.Millisecond, func() { cast(i) })
	}
	c.Sim.At(25*time.Millisecond, func() { c.Members[1].Switch.RequestSwitch() })
	for i := 5; i < 10; i++ {
		i := i
		c.Sim.At(time.Duration(i+6)*4*time.Millisecond, func() { cast(i) })
	}
	c.Run(10 * time.Second)
	c.Stop()
	for p := 0; p < 2; p++ {
		bodies, err := c.AppBodies(ids.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		if len(bodies) != 10 {
			t.Fatalf("member %d delivered %d/10 across the link-protocol switch", p, len(bodies))
		}
		for i, b := range bodies {
			if b != fmt.Sprintf("m%02d", i) {
				t.Fatalf("member %d order violated: %v", p, bodies)
			}
		}
		if c.Members[p].Switch.Epoch() != 1 {
			t.Fatalf("member %d did not switch", p)
		}
	}
}

func TestInitValidation(t *testing.T) {
	if err := NewStopAndWait(0).Init(nil, nil, nil); err == nil {
		t.Error("nil wiring accepted")
	}
}

func TestGarbageIgnored(t *testing.T) {
	l := NewGoBackN(4, 0)
	up := &ptest.RecordUp{}
	if err := l.Init(ptest.NewFakeEnv(0, 2), &ptest.RecordDown{}, up); err != nil {
		t.Fatal(err)
	}
	l.Recv(1, nil)
	l.Recv(1, []byte{kindData}) // truncated
	l.Recv(1, []byte{99})
	l.Recv(1, []byte{kindAck, 5}) // ack for nothing
	if len(up.Deliveries) != 0 {
		t.Error("garbage delivered")
	}
}

func TestSendAfterStop(t *testing.T) {
	l := NewStopAndWait(0)
	if err := l.Init(ptest.NewFakeEnv(0, 2), &ptest.RecordDown{}, &ptest.RecordUp{}); err != nil {
		t.Fatal(err)
	}
	l.Stop()
	if err := l.Send(1, []byte("x")); err == nil {
		t.Error("send after stop accepted")
	}
}

func TestWindowDefaults(t *testing.T) {
	if NewGoBackN(0, 0).window != 8 {
		t.Error("window default wrong")
	}
	if NewStopAndWait(0).window != 1 {
		t.Error("stop-and-wait window must be 1")
	}
	if NewSelectiveRepeat(0, 0).window != 8 {
		t.Error("selective-repeat window default wrong")
	}
}

// TestSelectiveRepeatRetransmitsLessThanGBN pins the selective-repeat
// advantage: on a lossy pipelined link it resends only the lost frames,
// while go-back-N resends its whole outstanding window.
func TestSelectiveRepeatRetransmitsLessThanGBN(t *testing.T) {
	run := func(mk func() proto.Layer, stats func() Stats) (int, uint64) {
		cfg := simnet.Config{Nodes: 2, PropDelay: 2 * time.Millisecond}
		c := p2p(t, 17, cfg, mk)
		if err := c.Net.SetFaults(0.2, 0, 0); err != nil {
			t.Fatal(err)
		}
		const n = 60
		for i := 0; i < n; i++ {
			if err := c.Members[0].Stack.Send(1, []byte(fmt.Sprintf("m%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		c.Run(30 * time.Second)
		delivered := len(c.Bodies(1))
		c.Stop()
		return delivered, stats().Retransmits
	}
	var gbn *GoBackN
	gbnDelivered, gbnRetx := run(
		func() proto.Layer {
			l := NewGoBackN(16, 30*time.Millisecond)
			if gbn == nil {
				gbn = l
			}
			return l
		},
		func() Stats { return gbn.Stats() },
	)
	var sr *SelectiveRepeat
	srDelivered, srRetx := run(
		func() proto.Layer {
			l := NewSelectiveRepeat(16, 30*time.Millisecond)
			if sr == nil {
				sr = l
			}
			return l
		},
		func() Stats { return sr.Stats() },
	)
	if gbnDelivered != 60 || srDelivered != 60 {
		t.Fatalf("incomplete delivery: gbn=%d sr=%d", gbnDelivered, srDelivered)
	}
	if srRetx >= gbnRetx {
		t.Errorf("selective repeat retransmitted %d >= go-back-N's %d on a lossy link", srRetx, gbnRetx)
	}
}

func TestSelectiveRepeatGarbage(t *testing.T) {
	l := NewSelectiveRepeat(4, 0)
	up := &ptest.RecordUp{}
	if err := l.Init(ptest.NewFakeEnv(0, 2), &ptest.RecordDown{}, up); err != nil {
		t.Fatal(err)
	}
	l.Recv(1, nil)
	l.Recv(1, []byte{kindSRData})   // truncated
	l.Recv(1, []byte{kindSRAck, 5}) // ack for nothing
	l.Recv(1, []byte{99})
	if len(up.Deliveries) != 0 {
		t.Error("garbage delivered")
	}
}

func TestSelectiveRepeatStop(t *testing.T) {
	l := NewSelectiveRepeat(4, 0)
	if err := l.Init(ptest.NewFakeEnv(0, 2), &ptest.RecordDown{}, &ptest.RecordUp{}); err != nil {
		t.Fatal(err)
	}
	l.Stop()
	if err := l.Send(1, []byte("x")); err == nil {
		t.Error("send after stop accepted")
	}
	if err := l.Init(nil, nil, nil); err == nil {
		t.Error("nil wiring accepted")
	}
}

func TestInFlightAccounting(t *testing.T) {
	l := NewGoBackN(2, 0)
	down := &ptest.RecordDown{}
	if err := l.Init(ptest.NewFakeEnv(0, 2), down, &ptest.RecordUp{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.InFlight(1); got != 2 {
		t.Errorf("InFlight = %d, want 2 (window)", got)
	}
	if len(down.Sends) != 2 {
		t.Errorf("transmitted %d frames, want 2", len(down.Sends))
	}
	if l.Stats().Queued == 0 {
		t.Error("queued frames not counted")
	}
}

// TestDeterministicEventScheduleUnderLoss replays the same lossy-link
// run several times in one process and requires the exact same event
// count each time. Selective repeat used to retransmit by ranging over
// its unacked map, injecting Go's randomized map iteration order into
// the simulation's event schedule; the run-to-run event count is the
// sensitive detector for that class of bug.
func TestDeterministicEventScheduleUnderLoss(t *testing.T) {
	eachProtocol(t, func(t *testing.T, name string, mk func() proto.Layer) {
		run := func() (uint64, int) {
			cfg := simnet.Config{Nodes: 2, PropDelay: 2 * time.Millisecond}
			c := p2p(t, 42, cfg, mk)
			if err := c.Net.SetFaults(0.25, 0, 0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				if err := c.Members[0].Stack.Send(1, []byte(fmt.Sprintf("m%02d", i))); err != nil {
					t.Fatal(err)
				}
			}
			c.Run(2 * time.Second)
			events := c.Sim.Executed()
			delivered := len(c.Members[1].Delivered)
			c.Stop()
			return events, delivered
		}
		refEvents, refDelivered := run()
		for i := 0; i < 4; i++ {
			events, delivered := run()
			if events != refEvents || delivered != refDelivered {
				t.Fatalf("%s run %d diverged: events %d vs %d, delivered %d vs %d",
					name, i+1, events, refEvents, delivered, refDelivered)
			}
		}
	})
}
