// Benchmarks regenerating every table and figure of the paper's
// evaluation (§7), plus micro-benchmarks of the substrates. Experiment
// benchmarks run the full discrete-event simulation per iteration and
// report the measured quantity (latency, switch duration, switch count)
// as custom metrics, so `go test -bench=. -benchmem` reproduces the
// paper's numbers alongside the usual ns/op.
//
// Mapping to DESIGN.md §4:
//
//	E2  BenchmarkTable2Matrix
//	E3  BenchmarkFigure2Sequencer / BenchmarkFigure2Token / BenchmarkFigure2Hybrid
//	E4  the crossover is asserted in BenchmarkFigure2Crossover
//	E5  BenchmarkSwitchOverhead
//	E6  BenchmarkHysteresis
//
// Full-length regenerations (paper-scale windows) are produced by
// `go run ./cmd/switchbench` and `go run ./cmd/metamatrix`.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core/switching"
	"repro/internal/core/viewswitch"
	"repro/internal/des"
	"repro/internal/harness"
	"repro/internal/ids"
	"repro/internal/metaprop"
	"repro/internal/proto"
	"repro/internal/protocols/arq"
	"repro/internal/protocols/ptest"
	"repro/internal/runtime/simenv"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// benchRunConfig is a shortened but shape-preserving §7 configuration
// so the benchmark suite completes in seconds.
func benchRunConfig(seed int64, senders int) harness.RunConfig {
	rc := harness.DefaultRunConfig()
	rc.Seed = seed
	rc.ActiveSenders = senders
	rc.Warmup = 500 * time.Millisecond
	rc.Measure = 2 * time.Second
	rc.Drain = 2 * time.Second
	return rc
}

// BenchmarkFigure2Sequencer reproduces the sequencer curve of Figure 2
// (E3): mean delivery latency at 1, 5 and 10 active senders.
func BenchmarkFigure2Sequencer(b *testing.B) {
	for _, n := range []int{1, 5, 10} {
		b.Run(fmt.Sprintf("senders-%d", n), func(b *testing.B) {
			var last harness.Result
			for i := 0; i < b.N; i++ {
				res, err := harness.RunDirect(harness.Sequencer, benchRunConfig(int64(i+1), n))
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(harness.Millis(last.Stats.Mean), "latency-ms")
		})
	}
}

// BenchmarkFigure2Token reproduces the token curve of Figure 2 (E3).
func BenchmarkFigure2Token(b *testing.B) {
	for _, n := range []int{1, 5, 10} {
		b.Run(fmt.Sprintf("senders-%d", n), func(b *testing.B) {
			var last harness.Result
			for i := 0; i < b.N; i++ {
				res, err := harness.RunDirect(harness.Token, benchRunConfig(int64(i+1), n))
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(harness.Millis(last.Stats.Mean), "latency-ms")
		})
	}
}

// BenchmarkFigure2Hybrid measures the switching hybrid with a threshold
// oracle at the crossover (our extension of Figure 2).
func BenchmarkFigure2Hybrid(b *testing.B) {
	for _, n := range []int{1, 8} {
		b.Run(fmt.Sprintf("senders-%d", n), func(b *testing.B) {
			var last harness.Result
			for i := 0; i < b.N; i++ {
				res, err := harness.RunSwitched(benchRunConfig(int64(i+1), n),
					switching.ThresholdOracle{Threshold: 5.5}, 50*time.Millisecond)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(harness.Millis(last.Stats.Mean), "latency-ms")
		})
	}
}

// BenchmarkFigure2Crossover verifies the E4 claim every iteration: the
// sequencer wins below the crossover, the token above it.
func BenchmarkFigure2Crossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		low := benchRunConfig(seed, 2)
		high := benchRunConfig(seed, 9)
		seqLow, err := harness.RunDirect(harness.Sequencer, low)
		if err != nil {
			b.Fatal(err)
		}
		tokLow, err := harness.RunDirect(harness.Token, low)
		if err != nil {
			b.Fatal(err)
		}
		seqHigh, err := harness.RunDirect(harness.Sequencer, high)
		if err != nil {
			b.Fatal(err)
		}
		tokHigh, err := harness.RunDirect(harness.Token, high)
		if err != nil {
			b.Fatal(err)
		}
		if seqLow.Stats.Mean >= tokLow.Stats.Mean || tokHigh.Stats.Mean >= seqHigh.Stats.Mean {
			b.Fatalf("crossover shape violated: low %v/%v high %v/%v",
				seqLow.Stats.Mean, tokLow.Stats.Mean, seqHigh.Stats.Mean, tokHigh.Stats.Mean)
		}
	}
}

// BenchmarkSwitchOverhead reproduces E5: switch duration near the
// crossover, in both directions ("the overhead of switching depends on
// the latency of the protocol being switched away from", §7).
func BenchmarkSwitchOverhead(b *testing.B) {
	for _, from := range []harness.ProtocolKind{harness.Sequencer, harness.Token} {
		b.Run("from-"+from.String(), func(b *testing.B) {
			var last *harness.OverheadResult
			for i := 0; i < b.N; i++ {
				cfg := harness.DefaultOverheadConfig()
				cfg.From = from
				cfg.Run = benchRunConfig(int64(i+1), 5)
				cfg.SwitchAt = time.Second
				res, err := harness.RunOverhead(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(harness.Millis(last.SwitchDuration), "switch-ms")
			b.ReportMetric(harness.Millis(last.Hiccup), "hiccup-ms")
		})
	}
}

// BenchmarkHysteresis reproduces E6: switch-request counts under the
// aggressive threshold oracle vs. the damped hysteresis oracle while
// the load oscillates across the crossover.
func BenchmarkHysteresis(b *testing.B) {
	cfg := harness.DefaultHysteresisConfig()
	cfg.Run.Warmup = 300 * time.Millisecond
	cfg.Run.Measure = 6 * time.Second
	cfg.Run.Drain = 2 * time.Second
	cfg.LoadPeriod = time.Second
	b.Run("threshold", func(b *testing.B) {
		var last *harness.HysteresisResult
		for i := 0; i < b.N; i++ {
			c := cfg
			c.Run.Seed = int64(i + 1)
			res, err := harness.RunHysteresis(c, switching.ThresholdOracle{Threshold: cfg.Threshold}, "threshold")
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.ReportMetric(float64(last.SwitchRequests), "switches")
		b.ReportMetric(harness.Millis(last.MeanLatency), "latency-ms")
	})
	b.Run("hysteresis", func(b *testing.B) {
		var last *harness.HysteresisResult
		for i := 0; i < b.N; i++ {
			c := cfg
			c.Run.Seed = int64(i + 1)
			oracle, err := switching.NewHysteresisOracle(cfg.Low, cfg.High)
			if err != nil {
				b.Fatal(err)
			}
			res, err := harness.RunHysteresis(c, oracle, "hysteresis")
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.ReportMetric(float64(last.SwitchRequests), "switches")
		b.ReportMetric(harness.Millis(last.MeanLatency), "latency-ms")
	})
}

// BenchmarkTable2Matrix reproduces E2: the full meta-property matrix,
// decided by bounded exhaustive enumeration.
func BenchmarkTable2Matrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := metaprop.Compute(false)
		if err != nil {
			b.Fatal(err)
		}
		ok, err := m.AllPreserved("Total Order")
		if err != nil || !ok {
			b.Fatal("matrix wrong")
		}
	}
}

// BenchmarkSwitchTokenIntervalAblation is the DESIGN.md §5 ablation:
// the idle rotation pace trades control-plane traffic against how long
// a requesting manager waits for a NORMAL token (switch start latency).
func BenchmarkSwitchTokenIntervalAblation(b *testing.B) {
	for _, interval := range []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond} {
		b.Run(interval.String(), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				rc := benchRunConfig(int64(i+1), 2)
				var rec *switching.Record
				run, err := harness.NewSwitchedRun(rc, switching.Config{
					Protocols:        harness.Factories(rc.TokenHold),
					TokenInterval:    interval,
					OnSwitchComplete: func(r switching.Record) { rec = &r },
				})
				if err != nil {
					b.Fatal(err)
				}
				requested := time.Second
				run.Cluster.Sim.At(requested, func() {
					run.Cluster.Members[3].Switch.RequestSwitch()
				})
				run.StartWorkload()
				run.Finish()
				if rec == nil {
					b.Fatal("switch never completed")
				}
				total += rec.Started - requested
			}
			b.ReportMetric(harness.Millis(total/time.Duration(b.N)), "wait-for-token-ms")
		})
	}
}

// BenchmarkViewSwitchVsSP contrasts §8's view-change switch with the
// token-ring SP at the same load: the view switch preserves Virtual
// Synchrony but blocks senders during its flush; the SP never blocks
// senders but cannot preserve VS. Metrics: switch duration and the
// number of casts that had to queue.
func BenchmarkViewSwitchVsSP(b *testing.B) {
	b.Run("token-ring-sp", func(b *testing.B) {
		var dur time.Duration
		for i := 0; i < b.N; i++ {
			cfg := harness.DefaultOverheadConfig()
			cfg.Run = benchRunConfig(int64(i+1), 3)
			cfg.From = harness.Sequencer
			cfg.SwitchAt = time.Second
			res, err := harness.RunOverhead(cfg)
			if err != nil {
				b.Fatal(err)
			}
			dur += res.SwitchDuration
		}
		b.ReportMetric(harness.Millis(dur/time.Duration(b.N)), "switch-ms")
		b.ReportMetric(0, "blocked-casts")
	})
	b.Run("view-switch", func(b *testing.B) {
		var dur time.Duration
		var blocked uint64
		for i := 0; i < b.N; i++ {
			d, q, err := runViewSwitchOnce(int64(i + 1))
			if err != nil {
				b.Fatal(err)
			}
			dur += d
			blocked += q
		}
		b.ReportMetric(harness.Millis(dur/time.Duration(b.N)), "switch-ms")
		b.ReportMetric(float64(blocked)/float64(b.N), "blocked-casts")
	})
}

// runViewSwitchOnce runs one view change under load and returns its
// duration and how many casts the flush blocked.
func runViewSwitchOnce(seed int64) (time.Duration, uint64, error) {
	rc := benchRunConfig(seed, 3)
	sim := des.New(rc.Seed)
	net, err := simnet.New(sim, simnet.Ethernet10Mbit(rc.Group))
	if err != nil {
		return 0, 0, err
	}
	group, err := simenv.NewGroup(sim, net, rc.Group)
	if err != nil {
		return 0, 0, err
	}
	managers := make([]*viewswitch.Manager, rc.Group)
	for _, node := range group.Nodes() {
		app := proto.UpFunc(func(ids.ProcID, []byte) {})
		mgr, err := viewswitch.New(node, app, node.Transport(), viewswitch.Config{
			Protocols: harness.Factories(rc.TokenHold),
		})
		if err != nil {
			return 0, 0, err
		}
		managers[node.Self()] = mgr
		if err := node.BindStack(mgr.Recv); err != nil {
			return 0, 0, err
		}
	}
	// §7-style constant-rate senders.
	interval := time.Duration(float64(time.Second) / rc.RatePerSender)
	stopAt := rc.Warmup + rc.Measure
	for s := 0; s < rc.ActiveSenders; s++ {
		p := ids.ProcID(s)
		seq := uint32(0)
		var tick func()
		tick = func() {
			if sim.Now() >= stopAt {
				return
			}
			seq++
			m := proto.AppMsg{ID: proto.MakeMsgID(p, seq), Sender: p, Body: make([]byte, rc.MsgBytes)}
			_ = managers[p].Cast(m.Encode())
			sim.After(interval, tick)
		}
		sim.After(time.Duration(s)*interval/10, tick)
	}
	vm := proto.AppMsg{ID: proto.MakeMsgID(0, 999999), Sender: 0, IsView: true, View: ids.Procs(rc.Group)}
	sim.At(time.Second, func() {
		_ = managers[0].RequestViewChange(ids.Procs(rc.Group), vm.Encode())
	})
	sim.RunUntil(stopAt + rc.Drain)
	recs := managers[0].Records()
	if len(recs) != 1 {
		return 0, 0, fmt.Errorf("view change did not complete")
	}
	var blocked uint64
	for _, m := range managers {
		blocked += m.Stats().BlockedCasts
		m.Stop()
	}
	return recs[0].Duration(), blocked, nil
}

// BenchmarkP2PARQ is the §1 point-to-point specialization's trade-off
// table: throughput and retransmission waste of stop-and-wait vs
// go-back-N over a slow and a lossy link. Stop-and-wait is RTT-bound
// but frugal; go-back-N pipelines but resends its whole window on a
// loss.
func BenchmarkP2PARQ(b *testing.B) {
	type linkCase struct {
		name string
		cfg  simnet.Config
	}
	links := []linkCase{
		{"fat-pipe", simnet.Config{Nodes: 2, PropDelay: 10 * time.Millisecond}},
		{"lossy", simnet.Config{Nodes: 2, PropDelay: 2 * time.Millisecond, DropProb: 0.15}},
	}
	protos := []struct {
		name string
		mk   func() proto.Layer
	}{
		{"stopwait", func() proto.Layer { return arq.NewStopAndWait(30 * time.Millisecond) }},
		{"gobackn", func() proto.Layer { return arq.NewGoBackN(16, 30*time.Millisecond) }},
		{"selectiverepeat", func() proto.Layer { return arq.NewSelectiveRepeat(16, 30*time.Millisecond) }},
	}
	for _, link := range links {
		for _, pr := range protos {
			b.Run(link.name+"/"+pr.name, func(b *testing.B) {
				var delivered int
				var retx uint64
				for i := 0; i < b.N; i++ {
					var layer proto.Layer
					cluster, err := ptest.New(int64(i+1), link.cfg, 2, func(proto.Env) []proto.Layer {
						l := pr.mk()
						if layer == nil {
							layer = l
						}
						return []proto.Layer{l}
					})
					if err != nil {
						b.Fatal(err)
					}
					const offered = 200
					for j := 0; j < offered; j++ {
						if err := cluster.Members[0].Stack.Send(1, make([]byte, 256)); err != nil {
							b.Fatal(err)
						}
					}
					cluster.Run(time.Second)
					delivered = len(cluster.Members[1].Delivered)
					type statser interface{ Stats() arq.Stats }
					if s, ok := layer.(statser); ok {
						retx = s.Stats().Retransmits
					}
					cluster.Stop()
				}
				b.ReportMetric(float64(delivered), "delivered-per-s")
				b.ReportMetric(float64(retx), "retransmits")
			})
		}
	}
}

// BenchmarkWireHeader measures the header codec on the hot path.
func BenchmarkWireHeader(b *testing.B) {
	payload := make([]byte, 1024)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := wire.NewEncoder(16)
			e.U8(1).Uvarint(uint64(i)).Proc(3)
			_ = e.Prepend(payload)
		}
	})
	e := wire.NewEncoder(16)
	e.U8(1).Uvarint(12345).Proc(3)
	pkt := e.Prepend(payload)
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := wire.NewDecoder(pkt)
			_ = d.U8()
			_ = d.Uvarint()
			_ = d.Proc()
			if d.Err() != nil {
				b.Fatal(d.Err())
			}
		}
	})
}
