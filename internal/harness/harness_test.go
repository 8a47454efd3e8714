package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core/switching"
)

// shortRun returns a config fast enough for unit tests while keeping
// the qualitative Figure 2 shape.
func shortRun() RunConfig {
	rc := DefaultRunConfig()
	rc.Warmup = 500 * time.Millisecond
	rc.Measure = 2 * time.Second
	rc.Drain = 2 * time.Second
	return rc
}

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s.Count != 0 || s.Mean != 0 {
		t.Errorf("empty Summarize = %+v", s)
	}
	one := Summarize([]time.Duration{5 * time.Millisecond})
	if one.Count != 1 || one.Mean != 5*time.Millisecond || one.P99 != 5*time.Millisecond {
		t.Errorf("singleton Summarize = %+v", one)
	}
	// Sub-µs samples share histogram bucket 0, so the bucket-quantile
	// estimator returns the mean for every percentile.
	samples := []time.Duration{4, 1, 3, 2, 5}
	s := Summarize(samples)
	if s.Count != 5 || s.Mean != 3 || s.P50 != 3 || s.Max != 5 {
		t.Errorf("Summarize = %+v", s)
	}
	// Input must not be mutated (sorted copy).
	if samples[0] != 4 {
		t.Error("Summarize mutated its input")
	}
	// Multi-bucket samples: quantiles are obs.Histogram.Quantile
	// bucket-edge interpolations, clamped to the observed range.
	ms := Summarize([]time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond,
		4 * time.Millisecond, 8 * time.Millisecond,
	})
	if ms.P50 != 2048*time.Microsecond {
		t.Errorf("P50 = %v, want 2048µs (bucket edge)", ms.P50)
	}
	if ms.P99 != 8*time.Millisecond {
		t.Errorf("P99 = %v, want clamp to max 8ms", ms.P99)
	}
	if ms.P50 > ms.P95 || ms.P95 > ms.P99 {
		t.Errorf("quantiles not monotone: %v %v %v", ms.P50, ms.P95, ms.P99)
	}
}

func TestMillis(t *testing.T) {
	if Millis(1500*time.Microsecond) != 1.5 {
		t.Errorf("Millis = %v", Millis(1500*time.Microsecond))
	}
	if FormatMillis(1500*time.Microsecond) != "1.5" {
		t.Errorf("FormatMillis = %q", FormatMillis(1500*time.Microsecond))
	}
}

func TestProtocolKindString(t *testing.T) {
	if Sequencer.String() != "sequencer" || Token.String() != "token" {
		t.Error("kind names wrong")
	}
	if ProtocolKind(9).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

func TestLayersUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Layers(unknown) did not panic")
		}
	}()
	Layers(ProtocolKind(9))
}

func TestRunDirectDeliversEverything(t *testing.T) {
	rc := shortRun()
	rc.ActiveSenders = 2
	res, err := RunDirect(Sequencer, rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("no messages sent in window")
	}
	// Every windowed message reaches all 10 members.
	if res.Stats.Count != res.Sent*rc.Group {
		t.Errorf("samples = %d, want %d (= sent %d × group %d)",
			res.Stats.Count, res.Sent*rc.Group, res.Sent, rc.Group)
	}
	if res.Stats.Mean <= 0 {
		t.Error("non-positive mean latency")
	}
}

// TestZeroWarmupMeasuresFromStart: a zero Warmup is no warmup, so the
// messages cast in the first 2 s are measured.
func TestZeroWarmupMeasuresFromStart(t *testing.T) {
	rc := shortRun()
	rc.Warmup = 0
	run, err := NewSwitchedRun(rc, switching.PaperExact(Factories()...))
	if err != nil {
		t.Fatal(err)
	}
	const casts = 10
	for i := 0; i < casts; i++ {
		run.Cluster.Sim.At(time.Duration(i+1)*150*time.Millisecond, func() { run.Cast(1) })
	}
	res := run.Finish()
	if res.Sent != casts {
		t.Errorf("%d of the %d casts in the first 2 s measured, want all", res.Sent, casts)
	}
	if res.Stats.Count != casts*rc.Group {
		t.Errorf("samples = %d, want %d (every member delivers every measured cast)", res.Stats.Count, casts*rc.Group)
	}
}

// TestRunConfigRejectsNonsense: a field no run can mean is an error, not
// a default.
func TestRunConfigRejectsNonsense(t *testing.T) {
	for name, mutate := range map[string]func(*RunConfig){
		"group":   func(rc *RunConfig) { rc.Group = 0 },
		"senders": func(rc *RunConfig) { rc.ActiveSenders = 0 },
		"rate":    func(rc *RunConfig) { rc.RatePerSender = 0 },
		"bytes":   func(rc *RunConfig) { rc.MsgBytes = -1 },
		"measure": func(rc *RunConfig) { rc.Measure = 0 },
		"warmup":  func(rc *RunConfig) { rc.Warmup = -time.Second },
		"drain":   func(rc *RunConfig) { rc.Drain = -time.Second },
	} {
		rc := shortRun()
		mutate(&rc)
		if _, err := RunDirect(Sequencer, rc); err == nil {
			t.Errorf("RunDirect accepted a bad %s", name)
		}
		if _, err := NewSwitchedRun(rc, switching.PaperExact(Factories()...)); err == nil {
			t.Errorf("NewSwitchedRun accepted a bad %s", name)
		}
	}
	rc := shortRun()
	rc.Warmup, rc.Drain = 0, 0
	if _, err := NewSwitchedRun(rc, switching.PaperExact(Factories()...)); err != nil {
		t.Errorf("zero warmup and drain rejected: %v", err)
	}
}

// TestFigure2Shape is E3/E4 at test scale: the sequencer must win at
// low load, the token at high load.
func TestFigure2Shape(t *testing.T) {
	rc := shortRun()
	rc.ActiveSenders = 1
	seqLow, err := RunDirect(Sequencer, rc)
	if err != nil {
		t.Fatal(err)
	}
	tokLow, err := RunDirect(Token, rc)
	if err != nil {
		t.Fatal(err)
	}
	if seqLow.Stats.Mean >= tokLow.Stats.Mean {
		t.Errorf("at 1 sender: sequencer %v should beat token %v",
			seqLow.Stats.Mean, tokLow.Stats.Mean)
	}
	rc.ActiveSenders = 9
	seqHigh, err := RunDirect(Sequencer, rc)
	if err != nil {
		t.Fatal(err)
	}
	tokHigh, err := RunDirect(Token, rc)
	if err != nil {
		t.Fatal(err)
	}
	if tokHigh.Stats.Mean >= seqHigh.Stats.Mean {
		t.Errorf("at 9 senders: token %v should beat sequencer %v",
			tokHigh.Stats.Mean, seqHigh.Stats.Mean)
	}
}

func TestRunFigure2SweepAndRender(t *testing.T) {
	cfg := Figure2Config{Run: shortRun(), MaxSenders: 3}
	res, err := RunFigure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	out := res.Render()
	if !strings.Contains(out, "sequencer") || !strings.Contains(out, "token") {
		t.Error("render missing columns")
	}
	if res.Plot() == "" {
		t.Error("empty plot")
	}
	// Sweep larger than the group is rejected.
	bad := Figure2Config{Run: shortRun(), MaxSenders: 99}
	if _, err := RunFigure2(bad); err == nil {
		t.Error("oversized sweep accepted")
	}
}

func TestRunSwitchedHybridTracksBestProtocol(t *testing.T) {
	// At 1 active sender the hybrid (threshold oracle) stays on the
	// sequencer: its latency must be far below the token's.
	rc := shortRun()
	rc.ActiveSenders = 1
	hyb, err := RunSwitched(rc, switching.ThresholdOracle{Threshold: 5.5})
	if err != nil {
		t.Fatal(err)
	}
	tok, err := RunDirect(Token, rc)
	if err != nil {
		t.Fatal(err)
	}
	if hyb.Stats.Mean >= tok.Stats.Mean {
		t.Errorf("hybrid %v not better than token %v at low load", hyb.Stats.Mean, tok.Stats.Mean)
	}
	// At 8 senders the oracle must have switched to the token: hybrid
	// beats the raw sequencer.
	rc.ActiveSenders = 8
	hyb8, err := RunSwitched(rc, switching.ThresholdOracle{Threshold: 5.5})
	if err != nil {
		t.Fatal(err)
	}
	seq8, err := RunDirect(Sequencer, rc)
	if err != nil {
		t.Fatal(err)
	}
	if hyb8.Stats.Mean >= seq8.Stats.Mean {
		t.Errorf("hybrid %v not better than sequencer %v at high load", hyb8.Stats.Mean, seq8.Stats.Mean)
	}
}

// TestOverheadExperiment is E5 at test scale: the switch completes, its
// duration is positive and larger when leaving the slow protocol, and
// the render mentions the hiccup.
func TestOverheadExperiment(t *testing.T) {
	cfg := DefaultOverheadConfig()
	cfg.Run.Warmup = 500 * time.Millisecond
	cfg.Run.Measure = 2 * time.Second
	cfg.Run.Drain = 2 * time.Second
	fromToken, err := RunOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fromToken.SwitchDuration <= 0 {
		t.Error("non-positive switch duration")
	}
	cfg.From = Sequencer
	fromSeq, err := RunOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// §7: the overhead depends on the latency of the protocol being
	// switched away from; the token's is higher.
	if fromToken.SwitchDuration <= fromSeq.SwitchDuration {
		t.Errorf("leaving token (%v) should cost more than leaving sequencer (%v)",
			fromToken.SwitchDuration, fromSeq.SwitchDuration)
	}
	if !strings.Contains(fromToken.Render(), "hiccup") {
		t.Error("render missing hiccup")
	}
}

// TestAnalyzeGapsDistinctInstants: a multicast lands at every member at
// one instant, so the delivery timeline repeats each instant. The steady
// gap is the median gap between distinct instants, not the zero between
// two members' copies of one delivery, and the hiccup subtracts it.
func TestAnalyzeGapsDistinctInstants(t *testing.T) {
	const members = 5
	ms := time.Millisecond
	var ts []time.Duration
	for _, at := range []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms, 100 * ms, 110 * ms} {
		for range members {
			ts = append(ts, at)
		}
	}
	rec := &switching.Record{Started: 40 * ms, Finished: 60 * ms}
	steady, hiccup := analyzeGaps(ts, 40*ms, rec)
	if steady != 10*ms || hiccup != 50*ms {
		t.Errorf("analyzeGaps = steady %v, hiccup %v; want 10ms and 50ms", steady, hiccup)
	}
}

func TestOverheadSweepRender(t *testing.T) {
	cfg := DefaultOverheadConfig()
	cfg.Run.Warmup = 300 * time.Millisecond
	cfg.Run.Measure = time.Second
	cfg.Run.Drain = 2 * time.Second
	_, rows, err := RunOverheadSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(overheadSenders) {
		t.Fatalf("rows = %d, want %d (both directions)", len(rows), 2*len(overheadSenders))
	}
	out := RenderOverheadSweep(rows)
	if !strings.Contains(out, "from token") {
		t.Error("sweep render missing direction column")
	}
}

// TestHysteresisDampsOscillation is E6 at test scale: the aggressive
// threshold oracle must request strictly more switches than the
// hysteresis oracle over a load ramp that straddles the crossover.
func TestHysteresisDampsOscillation(t *testing.T) {
	cfg := DefaultHysteresisConfig()
	cfg.Run.Warmup = 300 * time.Millisecond
	cfg.Run.Measure = 6 * time.Second
	cfg.Run.Drain = 2 * time.Second
	rows, err := RunHysteresisComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	agg, hys := rows[0], rows[1]
	if agg.SwitchRequests <= hys.SwitchRequests {
		t.Errorf("aggressive requested %d switches, hysteresis %d — expected oscillation without hysteresis",
			agg.SwitchRequests, hys.SwitchRequests)
	}
	if hys.SwitchRequests > 1 {
		t.Errorf("hysteresis oracle oscillated: %d requests", hys.SwitchRequests)
	}
	out := RenderHysteresis(rows)
	if !strings.Contains(out, "hysteresis") {
		t.Error("render missing policy")
	}
}

func TestP2PExperiment(t *testing.T) {
	seed, fatPipe := DefaultP2PConfig().Seed, p2pLinks[0]
	sw, err := runP2P(StopWait, seed, fatPipe)
	if err != nil {
		t.Fatal(err)
	}
	gbn, err := runP2P(GoBackN, seed, fatPipe)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := runP2P(SelectiveRepeat, seed, fatPipe)
	if err != nil {
		t.Fatal(err)
	}
	if gbn.Delivered <= sw.Delivered {
		t.Errorf("go-back-N (%d) must out-deliver stop-and-wait (%d) on a fat pipe", gbn.Delivered, sw.Delivered)
	}
	if sr.Delivered < gbn.Delivered {
		t.Errorf("selective repeat (%d) must match go-back-N (%d) on a clean link", sr.Delivered, gbn.Delivered)
	}
	// Validation path.
	if _, err := runP2P(ARQKind(99), seed, fatPipe); err == nil {
		t.Error("unknown kind accepted")
	}
	if ARQKind(99).String() == "" || StopWait.String() != "stop-and-wait" {
		t.Error("kind names wrong")
	}
}

func TestP2PTable(t *testing.T) {
	rows, err := RunP2PSweep(DefaultP2PConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := RenderP2PTable(rows)
	for _, want := range []string{"stop-and-wait", "go-back-N", "selective-repeat", "lossy"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestChaosSweepSmall(t *testing.T) {
	cfg := DefaultChaosSweepConfig()
	cfg.Schedules = 5
	res, err := RunChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("violations in small sweep:\n%s", res.Render())
	}
	if res.WorstRecovery > res.Bound {
		t.Errorf("worst recovery %v exceeds bound %v", res.WorstRecovery, res.Bound)
	}
	out := res.Render()
	for _, want := range []string{"schedules run", "tokens regenerated", "worst in-round recovery"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
