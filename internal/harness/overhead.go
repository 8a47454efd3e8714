package harness

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core/switching"
	"repro/internal/harness/engine"
	"repro/internal/obs"
)

// OverheadResult reproduces the §7 switching-overhead measurement: near
// the Figure 2 crossover, the paper reports a switch overhead of about
// 31 ms, dominated by waiting for the (high-latency) old protocol's
// in-flight messages — while the *perceived* hiccup is often less,
// because processes are never blocked from sending.
type OverheadResult struct {
	ActiveSenders int
	// SwitchDuration is the initiator's PREPARE→FLUSH-return time.
	SwitchDuration time.Duration
	// Hiccup is the worst app-level delivery gap during the switch,
	// minus the typical (median) steady-state gap.
	Hiccup time.Duration
	// SteadyGap is the median gap between distinct group-wide delivery
	// instants before the switch.
	SteadyGap time.Duration
	// From names the protocol being switched away from.
	From ProtocolKind
	// Events is the run's DES event count (deterministic per seed).
	Events uint64
	// Latency summarizes the run's delivery latencies.
	Latency LatencyStats
	// Trace is the run's event stream when OverheadConfig.Trace was set
	// (excluded from the sweep's comparable rows).
	Trace []obs.Event `json:"-"`
}

// OverheadConfig parameterizes the experiment.
type OverheadConfig struct {
	Run RunConfig
	// From selects the old protocol (the one whose latency dominates
	// the overhead). The new protocol is the other one.
	From ProtocolKind
	// Parallel is the sweep's worker count (<= 0 uses GOMAXPROCS);
	// results are identical for any value.
	Parallel int
	// Trace collects the run's event stream into the result.
	Trace bool
}

// DefaultOverheadConfig switches away from the token protocol (the
// high-latency direction §7 warns about) at the crossover load.
func DefaultOverheadConfig() OverheadConfig {
	rc := DefaultRunConfig()
	rc.ActiveSenders = 5
	rc.Measure = 6 * time.Second
	return OverheadConfig{Run: rc, From: Token}
}

// RunOverhead measures one switch under load, requested a third of the
// way into the measurement window.
func RunOverhead(cfg OverheadConfig) (*OverheadResult, error) {
	rc := cfg.Run
	switchAt := rc.Warmup + rc.Measure/3
	protos := Factories()
	if cfg.From == Token {
		protos[0], protos[1] = protos[1], protos[0]
	}
	var rec *switching.Record
	swCfg := switching.PaperExact(protos...)
	swCfg.OnSwitchComplete = func(r switching.Record) { rec = &r }
	var col *obs.Collector
	if cfg.Trace {
		col = obs.NewCollector()
		rc.Recorder = col
	}
	run, err := NewSwitchedRun(rc, swCfg)
	if err != nil {
		return nil, err
	}
	// Record the group-wide app-delivery timeline to find the hiccup.
	var deliveries []time.Duration
	run.SetDeliveryHook(func(now time.Duration) { deliveries = append(deliveries, now) })
	run.Cluster.Sim.At(switchAt, func() {
		run.Cluster.Members[0].Switch.RequestSwitch()
	})
	run.StartWorkload()
	res := run.Finish()
	if rec == nil {
		return nil, fmt.Errorf("harness: the switch never completed")
	}
	steady, hiccup := analyzeGaps(deliveries, switchAt, rec)
	out := &OverheadResult{
		ActiveSenders:  rc.ActiveSenders,
		SwitchDuration: rec.Duration(),
		Hiccup:         hiccup,
		SteadyGap:      steady,
		From:           cfg.From,
		Events:         res.Events,
		Latency:        res.Stats,
	}
	if col != nil {
		out.Trace = col.Events()
	}
	return out, nil
}

// analyzeGaps returns the median steady-state delivery gap before the
// switch and the hiccup (worst gap overlapping the switch window minus
// the steady gap; never negative). ts is the group-wide delivery
// timeline, in order; a gap runs between two distinct delivery instants,
// because a multicast lands at several members at one instant, and the
// zero gaps between them would make the median read 0.
func analyzeGaps(ts []time.Duration, switchAt time.Duration, rec *switching.Record) (steady, hiccup time.Duration) {
	var preGaps []time.Duration
	var worst time.Duration
	windowEnd := rec.Finished + 50*time.Millisecond
	for i := 1; i < len(ts); i++ {
		if ts[i] == ts[i-1] {
			continue
		}
		gap := ts[i] - ts[i-1]
		switch {
		case ts[i] < switchAt:
			preGaps = append(preGaps, gap)
		case ts[i-1] >= rec.Started && ts[i-1] <= windowEnd:
			if gap > worst {
				worst = gap
			}
		}
	}
	if len(preGaps) == 0 {
		return 0, worst
	}
	sort.Slice(preGaps, func(i, j int) bool { return preGaps[i] < preGaps[j] })
	steady = preGaps[len(preGaps)/2]
	hiccup = worst - steady
	if hiccup < 0 {
		hiccup = 0
	}
	return steady, hiccup
}

// Render prints the overhead result.
func (r *OverheadResult) Render() string {
	var b strings.Builder
	b.WriteString("Switching overhead near the crossover (§7; paper: ~31 ms)\n\n")
	fmt.Fprintf(&b, "active senders:        %d\n", r.ActiveSenders)
	fmt.Fprintf(&b, "switching away from:   %v\n", r.From)
	fmt.Fprintf(&b, "switch duration:       %s ms\n", FormatMillis(r.SwitchDuration))
	fmt.Fprintf(&b, "steady delivery gap:   %s ms\n", FormatMillis(r.SteadyGap))
	fmt.Fprintf(&b, "perceived hiccup:      %s ms (senders are never blocked)\n", FormatMillis(r.Hiccup))
	if r.Latency.Count > 0 {
		fmt.Fprintf(&b, "delivery latency:      %s±%s ms (min %s, p99 %s, n=%d)\n",
			FormatMillis(r.Latency.Mean), FormatMillis(r.Latency.StdDev),
			FormatMillis(r.Latency.Min), FormatMillis(r.Latency.P99), r.Latency.Count)
	}
	return b.String()
}

// overheadSenders is the sweep's sender-count axis.
var overheadSenders = []int{2, 5, 8}

// RunOverheadSweep measures the switch duration in both directions and
// across sender counts — the ablation for DESIGN.md §5 ("the overhead
// of switching depends on the latency of the protocol being switched
// away from"). The (senders × direction) grid runs on a worker pool;
// rows come back in deterministic sweep order regardless of
// base.Parallel. Every cell runs base with only its sender count and
// direction replaced, so the cell at base's own load and direction is
// RunOverhead(base): it comes back as single instead of being run twice.
func RunOverheadSweep(base OverheadConfig) (single *OverheadResult, rows []OverheadResult, err error) {
	dirs := []ProtocolKind{Sequencer, Token}
	senders := base.Run.ActiveSenders
	si, di := slices.Index(overheadSenders, senders), slices.Index(dirs, base.From)
	if si < 0 || di < 0 {
		return nil, nil, fmt.Errorf("harness: %d senders from %v is not a cell of the sweep (senders %v)",
			senders, base.From, overheadSenders)
	}
	pool := engine.New(base.Parallel)
	rows, err = engine.Map(pool, len(overheadSenders)*len(dirs), base.Run.Seed,
		func(j engine.Job) (OverheadResult, error) {
			cfg := base
			cfg.Run.ActiveSenders = overheadSenders[j.Index/len(dirs)]
			cfg.From = dirs[j.Index%len(dirs)]
			r, err := RunOverhead(cfg)
			if err != nil {
				return OverheadResult{}, fmt.Errorf("senders=%d from=%v: %w",
					cfg.Run.ActiveSenders, cfg.From, err)
			}
			return *r, nil
		})
	if err != nil {
		return nil, nil, err
	}
	return &rows[si*len(dirs)+di], rows, nil
}

// RenderOverheadSweep prints the sweep as a table.
func RenderOverheadSweep(rows []OverheadResult) string {
	var b strings.Builder
	b.WriteString("Switch overhead sweep: duration(ms)/hiccup(ms) by old protocol\n\n")
	fmt.Fprintf(&b, "%8s %18s %18s\n", "senders", "from sequencer", "from token")
	bySenders := map[int]map[ProtocolKind]OverheadResult{}
	var order []int
	for _, r := range rows {
		if bySenders[r.ActiveSenders] == nil {
			bySenders[r.ActiveSenders] = map[ProtocolKind]OverheadResult{}
			order = append(order, r.ActiveSenders)
		}
		bySenders[r.ActiveSenders][r.From] = r
	}
	sort.Ints(order)
	for _, n := range order {
		s := bySenders[n][Sequencer]
		t := bySenders[n][Token]
		fmt.Fprintf(&b, "%8d %11s/%-6s %11s/%-6s\n", n,
			FormatMillis(s.SwitchDuration), FormatMillis(s.Hiccup),
			FormatMillis(t.SwitchDuration), FormatMillis(t.Hiccup))
	}
	return b.String()
}
