package harness

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core/switching"
	"repro/internal/proto"
)

// TestFigure2HybridThresholdOrderIndependent is the regression test for
// the order-dependent hybrid threshold: RunFigure2 used to seed each
// hybrid point's oracle with the crossover of the partial rows
// accumulated so far, so hybrid stats depended on sweep execution
// order. With the two-phase sweep, the hybrid stats must be identical
// whether the points run in order 1..N, reversed, or in parallel.
func TestFigure2HybridThresholdOrderIndependent(t *testing.T) {
	cfg := Figure2Config{Run: shortRun(), MaxSenders: 3, Parallel: 1}
	forward, err := RunFigure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if forward.HybridThreshold != forward.CrossoverGuess() {
		t.Errorf("threshold %v not derived from the complete curves (guess %v)",
			forward.HybridThreshold, forward.CrossoverGuess())
	}

	// Reversed: replay the hybrid points N..1 by hand with the sweep's
	// threshold; every point must reproduce the sweep's stats exactly.
	for i := cfg.MaxSenders - 1; i >= 0; i-- {
		rc := cfg.Run
		rc.ActiveSenders = forward.Rows[i].ActiveSenders
		r, err := runHybridPoint(rc, forward.HybridThreshold)
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats != forward.Rows[i].Hybrid {
			t.Errorf("reversed order diverged at %d senders: %+v vs %+v",
				rc.ActiveSenders, r.Stats, forward.Rows[i].Hybrid)
		}
	}

	// Parallel: the whole sweep on 8 workers must be deeply equal.
	cfg.Parallel = 8
	par, err := RunFigure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(forward, par) {
		t.Errorf("parallel sweep diverged:\n%+v\nvs\n%+v", forward, par)
	}
}

// TestFigure2JSONByteIdenticalAcrossWorkers is the engine-determinism
// acceptance check at test scale: the BENCH_figure2.json bytes (minus
// the wall-clock timing section) are identical at -parallel 1 and
// -parallel 8.
func TestFigure2JSONByteIdenticalAcrossWorkers(t *testing.T) {
	encode := func(parallel int) []byte {
		cfg := Figure2Config{Run: shortRun(), MaxSenders: 3, Parallel: parallel}
		res, err := RunFigure2(cfg)
		if err != nil {
			t.Fatal(err)
		}
		art := NewBenchFigure2(res)
		art.SetTiming(123*time.Millisecond, parallel) // differs per run on purpose
		art.ScrubTiming()
		b, err := EncodeBench(art)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seq, par := encode(1), encode(8)
	if !bytes.Equal(seq, par) {
		t.Errorf("figure2 JSON differs across worker counts:\n%s\nvs\n%s", seq, par)
	}
}

// TestChaosSweepParallelDeterminismAndFailurePropagation runs the chaos
// sweep through the parallel path twice: once healthy, once with a
// starved settle/drain window that makes every schedule violate the
// liveness invariant. The aggregate must be identical across worker
// counts, and the injected failures must come back through the parallel
// path (cmd/switchbench turns a non-empty Failures into a non-zero
// exit).
func TestChaosSweepParallelDeterminismAndFailurePropagation(t *testing.T) {
	cfg := DefaultChaosSweepConfig()
	cfg.Schedules = 6

	cfg.Parallel = 1
	seq, err := RunChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 4
	par, err := RunChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Render() != par.Render() {
		t.Errorf("chaos sweep diverged across worker counts:\n%s\nvs\n%s", seq.Render(), par.Render())
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("chaos aggregates diverged: %+v vs %+v", seq, par)
	}

	// Starve the post-heal window: probes get (effectively) no time to
	// arrive, so liveness must be violated — and those violations must
	// survive the trip through the worker pool.
	bad := cfg
	bad.Run.Settle = time.Nanosecond
	bad.Run.Drain = time.Nanosecond
	bad.Parallel = 4
	res, err := RunChaosSweep(bad)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) == 0 {
		t.Fatal("starved sweep reported no invariant failures through the parallel path")
	}
	bad.Parallel = 1
	resSeq, err := RunChaosSweep(bad)
	if err != nil {
		t.Fatal(err)
	}
	if len(resSeq.Failures) != len(res.Failures) {
		t.Errorf("failure count differs across worker counts: %d vs %d",
			len(resSeq.Failures), len(res.Failures))
	}
}

// TestChaosCorruptionSweepByteIdenticalAcrossWorkers is E15's
// determinism gate: a corruption-enabled sweep — bit flips, truncation,
// garbage floods, defensive ingress and quarantine all active — must
// render the same table and encode a byte-identical artifact (timing
// scrubbed) for 1 and 4 workers, and must actually exercise the
// hardening counters so the comparison is not vacuous.
func TestChaosCorruptionSweepByteIdenticalAcrossWorkers(t *testing.T) {
	sweep := func(parallel int) (*ChaosSweepResult, []byte) {
		cfg := DefaultChaosSweepConfig()
		cfg.Schedules = 20
		cfg.Gen.Corruption = true
		cfg.Parallel = parallel
		res, err := RunChaosSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		art := NewBenchChaos(cfg.Seed, res)
		art.SetTiming(time.Duration(parallel)*time.Millisecond, parallel) // differs per run on purpose
		art.ScrubTiming()
		b, err := EncodeBench(art)
		if err != nil {
			t.Fatal(err)
		}
		return res, b
	}
	seq, seqJSON := sweep(1)
	par, parJSON := sweep(4)
	if len(seq.Failures) != 0 {
		for _, f := range seq.Failures {
			t.Errorf("seed %d (%v): %v", f.Seed, f.Kinds, f.Violations)
		}
	}
	if seq.Render() != par.Render() {
		t.Errorf("corruption sweep table diverged across worker counts:\n%s\nvs\n%s", seq.Render(), par.Render())
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Errorf("corruption sweep JSON differs across worker counts:\n%s\nvs\n%s", seqJSON, parJSON)
	}
	if seq.Stats.AuthFailed+seq.Stats.MalformedDropped == 0 {
		t.Error("corruption sweep rejected no damaged packets — hardening not exercised")
	}
	if n := seq.KindCounts[chaos.KindCorrupt] + seq.KindCounts[chaos.KindTruncate] + seq.KindCounts[chaos.KindGarbage]; n == 0 {
		t.Error("corruption sweep generated no corruption faults")
	}
}

// TestChaosFlashCrowdSweepByteIdenticalAcrossWorkers is E17's
// determinism gate: a flash-crowd-enabled sweep — sender spikes against
// the bounded-queue overload layer, plus the E17 latency/shed study —
// must render the same table and encode a byte-identical artifact
// (timing scrubbed) for 1 and 4 workers, and must actually exercise the
// overload counters so the comparison is not vacuous.
func TestChaosFlashCrowdSweepByteIdenticalAcrossWorkers(t *testing.T) {
	sweep := func(parallel int) (*ChaosSweepResult, []byte) {
		cfg := DefaultChaosSweepConfig()
		cfg.Schedules = 20
		cfg.Gen.FlashCrowd = true
		cfg.Parallel = parallel
		res, err := RunChaosSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		art := NewBenchChaos(cfg.Seed, res)
		art.SetTiming(time.Duration(parallel)*time.Millisecond, parallel) // differs per run on purpose
		art.ScrubTiming()
		b, err := EncodeBench(art)
		if err != nil {
			t.Fatal(err)
		}
		return res, b
	}
	seq, seqJSON := sweep(1)
	par, parJSON := sweep(4)
	if len(seq.Failures) != 0 {
		for _, f := range seq.Failures {
			t.Errorf("seed %d (%v): %v", f.Seed, f.Kinds, f.Violations)
		}
	}
	if seq.Render() != par.Render() {
		t.Errorf("flash-crowd sweep table diverged across worker counts:\n%s\nvs\n%s", seq.Render(), par.Render())
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Errorf("flash-crowd sweep JSON differs across worker counts:\n%s\nvs\n%s", seqJSON, parJSON)
	}
	if seq.KindCounts[chaos.KindFlashCrowd] == 0 {
		t.Error("flash-crowd sweep generated no flash-crowd faults")
	}
	if seq.Stats.Shed == 0 {
		t.Error("flash-crowd sweep shed nothing — the overload layer was not exercised")
	}
	if len(seq.FlashCrowd) == 0 {
		t.Error("flash-crowd sweep produced no E17 rows")
	}
}

// TestChaosGraySweepByteIdenticalAcrossWorkers is E20's determinism
// gate: a gray-failure-enabled sweep — slow nodes, asymmetric link
// faults, flapping links, the adaptive detector and the E20 stability
// study all active — must render the same table and encode a
// byte-identical artifact (timing scrubbed) for 1 and 4 workers, and
// must actually exercise the gray counters so the comparison is not
// vacuous.
func TestChaosGraySweepByteIdenticalAcrossWorkers(t *testing.T) {
	sweep := func(parallel int) (*ChaosSweepResult, []byte) {
		cfg := DefaultChaosSweepConfig()
		cfg.Schedules = 20
		cfg.Gen.GrayFailure = true
		cfg.Parallel = parallel
		res, err := RunChaosSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		art := NewBenchChaos(cfg.Seed, res)
		art.SetTiming(time.Duration(parallel)*time.Millisecond, parallel) // differs per run on purpose
		art.ScrubTiming()
		b, err := EncodeBench(art)
		if err != nil {
			t.Fatal(err)
		}
		return res, b
	}
	seq, seqJSON := sweep(1)
	par, parJSON := sweep(4)
	if len(seq.Failures) != 0 {
		for _, f := range seq.Failures {
			t.Errorf("seed %d (%v): %v", f.Seed, f.Kinds, f.Violations)
		}
	}
	if seq.Render() != par.Render() {
		t.Errorf("gray sweep table diverged across worker counts:\n%s\nvs\n%s", seq.Render(), par.Render())
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Errorf("gray sweep JSON differs across worker counts:\n%s\nvs\n%s", seqJSON, parJSON)
	}
	if n := seq.KindCounts[chaos.KindSlowNode] + seq.KindCounts[chaos.KindLinkFault] + seq.KindCounts[chaos.KindFlap]; n == 0 {
		t.Error("gray sweep generated no gray-failure faults")
	}
	if seq.Stats.SuspicionsRaised == 0 {
		t.Error("gray sweep raised no graded suspicions — the adaptive detector was not exercised")
	}
	if len(seq.Gray) == 0 {
		t.Error("gray sweep produced no E20 rows")
	}
}

// TestGrayStudyDampingReducesChurn pins E20's headline result: under
// fast flapping, the adaptive arm (graded suspicion + flap damping)
// must suffer strictly less healthy-member recovery churn than the
// fixed detector, the damping machinery must actually engage
// (penalties, degraded-mode skips, and re-inclusions all non-zero),
// and the adaptive arm's crash-detection latency must not be worse
// than the fixed arm's by more than one heartbeat — the stability is
// not bought with slower detection of genuine crashes.
func TestGrayStudyDampingReducesChurn(t *testing.T) {
	rows, err := RunGrayStudy(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	byArm := map[bool]GrayStudyRow{}
	fastest := rows[0].Period
	for _, r := range rows {
		if r.Violations != 0 {
			t.Errorf("%v/%s: %d invariant violations", r.Period, detectorName(r.Fixed), r.Violations)
		}
		if r.Period < fastest {
			fastest = r.Period
		}
	}
	for _, r := range rows {
		if r.Period == fastest {
			byArm[r.Fixed] = r
		}
	}
	fixed, adaptive := byArm[true], byArm[false]
	if adaptive.TokenRegens*2 >= fixed.TokenRegens {
		t.Errorf("adaptive arm regenerated %d tokens vs fixed %d at %v flapping — damping bought < 2x",
			adaptive.TokenRegens, fixed.TokenRegens, fastest)
	}
	if adaptive.SwitchAborts > fixed.SwitchAborts {
		t.Errorf("adaptive arm aborted %d switches vs fixed %d at %v flapping",
			adaptive.SwitchAborts, fixed.SwitchAborts, fastest)
	}
	if adaptive.FlapPenalties == 0 || adaptive.DegradedSkips == 0 || adaptive.Reincludes == 0 {
		t.Errorf("damping never engaged: penalties=%d skips=%d reincludes=%d",
			adaptive.FlapPenalties, adaptive.DegradedSkips, adaptive.Reincludes)
	}
	if fixed.FlapPenalties != 0 || fixed.DegradedSkips != 0 {
		t.Errorf("fixed arm ran damping machinery: penalties=%d skips=%d",
			fixed.FlapPenalties, fixed.DegradedSkips)
	}
	if adaptive.DetectLatency > fixed.DetectLatency+5*time.Millisecond {
		t.Errorf("adaptive crash detection p50 %v vs fixed %v — stability bought with slow detection",
			adaptive.DetectLatency, fixed.DetectLatency)
	}
}

// TestOverheadAndP2PSweepsParallelDeterminism covers the remaining
// drivers: rows are identical for 1 and 4 workers.
func TestOverheadAndP2PSweepsParallelDeterminism(t *testing.T) {
	ocfg := DefaultOverheadConfig()
	ocfg.Run.Warmup = 300 * time.Millisecond
	ocfg.Run.Measure = time.Second
	ocfg.Run.Drain = 2 * time.Second
	ocfg.Parallel = 1
	_, oseq, err := RunOverheadSweep(ocfg)
	if err != nil {
		t.Fatal(err)
	}
	ocfg.Parallel = 4
	_, opar, err := RunOverheadSweep(ocfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(oseq, opar) {
		t.Errorf("overhead sweep diverged:\n%+v\nvs\n%+v", oseq, opar)
	}

	pcfg := DefaultP2PConfig()
	pcfg.Parallel = 1
	pseq, err := RunP2PSweep(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg.Parallel = 4
	ppar, err := RunP2PSweep(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pseq, ppar) {
		t.Errorf("p2p sweep diverged:\n%+v\nvs\n%+v", pseq, ppar)
	}

	hcfg := DefaultHysteresisConfig()
	hcfg.Run.Warmup = 300 * time.Millisecond
	hcfg.Run.Measure = 3 * time.Second
	hcfg.Run.Drain = 2 * time.Second
	hcfg.Parallel = 1
	hseq, err := RunHysteresisComparison(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	hcfg.Parallel = 4
	hpar, err := RunHysteresisComparison(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hseq, hpar) {
		t.Errorf("hysteresis comparison diverged:\n%+v\nvs\n%+v", hseq, hpar)
	}
}

// TestCollectorPrunesSendTimes covers the collector memory fix: entries
// leave the map once the whole group has delivered the message, or on
// the first delivery of a message outside the measurement window.
func TestCollectorPrunesSendTimes(t *testing.T) {
	rc := DefaultRunConfig() // Group=10, Warmup=2s, Measure=10s
	c := newCollector(rc)

	// In-window message: pruned after the full group delivered it.
	id := proto.MakeMsgID(1, 1)
	c.recordSend(id, 3*time.Second)
	for i := 0; i < rc.Group; i++ {
		if c.inFlight() != 1 {
			t.Fatalf("in-flight = %d before delivery %d, want 1", c.inFlight(), i)
		}
		c.onDeliver(3*time.Second+time.Duration(i+1)*time.Millisecond, id)
	}
	if c.inFlight() != 0 {
		t.Errorf("in-flight = %d after %d deliveries, want 0", c.inFlight(), rc.Group)
	}
	if len(c.samples) != rc.Group {
		t.Errorf("samples = %d, want %d", len(c.samples), rc.Group)
	}

	// Warmup message: pruned on first delivery, no sample.
	warm := proto.MakeMsgID(1, 2)
	c.recordSend(warm, time.Second)
	c.onDeliver(1100*time.Millisecond, warm)
	if c.inFlight() != 0 {
		t.Errorf("warmup entry retained: in-flight = %d", c.inFlight())
	}
	// Post-window message: likewise.
	late := proto.MakeMsgID(1, 3)
	c.recordSend(late, rc.Warmup+rc.Measure+time.Second)
	c.onDeliver(rc.Warmup+rc.Measure+1100*time.Millisecond, late)
	if c.inFlight() != 0 {
		t.Errorf("post-window entry retained: in-flight = %d", c.inFlight())
	}
	if len(c.samples) != rc.Group {
		t.Errorf("out-of-window deliveries sampled: %d", len(c.samples))
	}

	// Deliveries of unknown IDs stay a no-op after pruning.
	c.onDeliver(4*time.Second, warm)
	if len(c.samples) != rc.Group || c.inFlight() != 0 {
		t.Error("delivery after pruning changed state")
	}
}

// TestSwitchedRunLeavesNoInFlightEntries is the end-to-end flavor:
// after a full run with drain, every measured message has been
// delivered to the whole group, so the collector map must be empty
// rather than holding every message ever sent.
func TestSwitchedRunLeavesNoInFlightEntries(t *testing.T) {
	rc := shortRun()
	rc.ActiveSenders = 2
	run, err := NewSwitchedRun(rc, switching.Config{})
	if err != nil {
		t.Fatal(err)
	}
	run.StartWorkload()
	res := run.Finish()
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if n := run.Collector.inFlight(); n != 0 {
		t.Errorf("collector retains %d entries after a drained run", n)
	}
}

// TestChaosForgerySweepByteIdenticalAcrossWorkers is E16's determinism
// gate: a forgery-enabled sweep — crafted frames, the wire-replay tap,
// epoch-keyed authenticated ingress, quarantine — must render the same
// table and encode a byte-identical artifact (timing scrubbed) for 1
// and 4 workers, and must actually exercise the authentication counters
// so the comparison is not vacuous.
func TestChaosForgerySweepByteIdenticalAcrossWorkers(t *testing.T) {
	sweep := func(parallel int) (*ChaosSweepResult, []byte) {
		cfg := DefaultChaosSweepConfig()
		cfg.Schedules = 20
		cfg.Gen.Corruption = true
		cfg.Gen.Forgery = true
		cfg.Parallel = parallel
		res, err := RunChaosSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		art := NewBenchChaos(cfg.Seed, res)
		art.SetTiming(time.Duration(parallel)*time.Millisecond, parallel) // differs per run on purpose
		art.ScrubTiming()
		b, err := EncodeBench(art)
		if err != nil {
			t.Fatal(err)
		}
		return res, b
	}
	seq, seqJSON := sweep(1)
	par, parJSON := sweep(4)
	if len(seq.Failures) != 0 {
		for _, f := range seq.Failures {
			t.Errorf("seed %d (%v): %v", f.Seed, f.Kinds, f.Violations)
		}
	}
	if seq.Render() != par.Render() {
		t.Errorf("forgery sweep table diverged across worker counts:\n%s\nvs\n%s", seq.Render(), par.Render())
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Errorf("forgery sweep JSON differs across worker counts:\n%s\nvs\n%s", seqJSON, parJSON)
	}
	if seq.Forged == 0 || seq.Replayed == 0 {
		t.Errorf("forgery sweep injected %d forged and %d replayed frames — adversary never acted",
			seq.Forged, seq.Replayed)
	}
	if seq.Stats.AuthFailed == 0 {
		t.Error("forgery sweep rejected nothing at the auth boundary — authenticated ingress not exercised")
	}
	if n := seq.KindCounts[chaos.KindForge] + seq.KindCounts[chaos.KindReplay]; n == 0 {
		t.Error("forgery sweep generated no forgery faults")
	}
}

// TestChaosSweepTierFromGen pins that each chaos tier is set in one
// place: a sweep whose generator draws flash-crowd (or gray-failure)
// faults also runs that tier's study, and only that one.
func TestChaosSweepTierFromGen(t *testing.T) {
	for _, tc := range []struct {
		name        string
		gen         chaos.GenConfig
		crowd, gray bool
	}{
		{"flash-crowd", chaos.GenConfig{FlashCrowd: true}, true, false},
		{"gray-failure", chaos.GenConfig{GrayFailure: true}, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunChaosSweep(ChaosSweepConfig{Schedules: 2, Seed: 1, Gen: tc.gen})
			if err != nil {
				t.Fatal(err)
			}
			if got := len(res.FlashCrowd) > 0; got != tc.crowd {
				t.Errorf("%d E17 rows, want rows: %v", len(res.FlashCrowd), tc.crowd)
			}
			if got := len(res.Gray) > 0; got != tc.gray {
				t.Errorf("%d E20 rows, want rows: %v", len(res.Gray), tc.gray)
			}
		})
	}
}

// TestOverheadSweepHoldsTheSingleMeasurement pins E5's one-run headline:
// the single §7 measurement is the sweep's (5 senders, from token) cell,
// trace included, so the sweep hands that cell back instead of the
// experiment running it a second time.
func TestOverheadSweepHoldsTheSingleMeasurement(t *testing.T) {
	cfg := DefaultOverheadConfig()
	cfg.Run.Warmup = 300 * time.Millisecond
	cfg.Run.Measure = time.Second
	cfg.Run.Drain = 2 * time.Second
	cfg.Trace = true
	want, err := RunOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	single, rows, err := RunOverheadSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if single.ActiveSenders != 5 || single.From != Token {
		t.Fatalf("single is the (%d senders, from %v) cell, want (5, from token)", single.ActiveSenders, single.From)
	}
	if len(want.Trace) == 0 {
		t.Fatal("traced run recorded no events")
	}
	if !reflect.DeepEqual(*want, *single) {
		t.Errorf("sweep cell differs from RunOverhead:\n%+v\nvs\n%+v", *single, *want)
	}
	cells := 0
	for _, r := range rows {
		if reflect.DeepEqual(r, *want) {
			cells++
		}
	}
	if cells != 1 {
		t.Errorf("%d sweep rows equal the single measurement, want 1", cells)
	}

	cfg.Run.ActiveSenders = 3
	if _, _, err := RunOverheadSweep(cfg); err == nil {
		t.Error("a base load off the sweep's sender axis was accepted")
	}
}
