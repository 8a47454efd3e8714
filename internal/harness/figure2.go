package harness

import (
	"fmt"
	"strings"

	"repro/internal/core/switching"
	"repro/internal/harness/engine"
	"repro/internal/obs"
)

// Figure2Row is one x-axis point of the paper's Figure 2: message
// latency vs. number of active senders, for the sequencer-based and
// token-based total-order protocols (and, as our extension, the hybrid
// running under the switching protocol with a threshold oracle).
type Figure2Row struct {
	ActiveSenders int
	Sequencer     LatencyStats
	Token         LatencyStats
	Hybrid        LatencyStats
	// Events is the total number of DES events the point's runs
	// executed (sequencer + token + hybrid); deterministic per seed.
	Events uint64
}

// Figure2Result is the full reproduced figure.
type Figure2Result struct {
	Rows []Figure2Row
	// CrossoverAfter is the largest sender count at which the sequencer
	// is still faster (the paper finds the crossover between 5 and 6).
	// Zero means the curves never cross.
	CrossoverAfter int
	// HybridThreshold is the oracle threshold every hybrid point ran
	// with. It is computed once, from the complete sequencer/token
	// curves, so hybrid results do not depend on sweep execution order.
	HybridThreshold float64
	// Run is the resolved configuration the sweep ran with (rendered in
	// the table header).
	Run RunConfig
	// Trace is the merged hybrid-phase event stream (runs tagged by
	// point index) when Figure2Config.Trace was set.
	Trace []obs.Event
}

// Figure2Config parameterizes the sweep.
type Figure2Config struct {
	Run        RunConfig
	MaxSenders int
	// Parallel is the worker count for the sweep's independent DES
	// runs; <= 0 uses GOMAXPROCS. Results are identical for any value.
	Parallel int
	// Trace collects each hybrid point's event stream (the direct
	// sequencer/token runs have no switching layer to observe).
	Trace bool
	// Progress, if set, is called before each point (for CLI feedback).
	// It may be called concurrently from worker goroutines.
	Progress func(msg string)
}

// RunFigure2 sweeps the active-sender axis and measures each protocol.
//
// The sweep runs in two phases. Phase 1 measures the raw sequencer and
// token curves at every sender count (in parallel). Phase 2 computes the
// crossover threshold once from the complete curves and measures every
// hybrid point against that single fixed threshold (again in parallel),
// so hybrid results do not depend on sweep execution order.
func RunFigure2(cfg Figure2Config) (*Figure2Result, error) {
	if cfg.MaxSenders <= 0 {
		cfg.MaxSenders = 10
	}
	if err := cfg.Run.validate(); err != nil {
		return nil, err
	}
	if cfg.MaxSenders > cfg.Run.Group {
		return nil, fmt.Errorf("harness: %d senders exceed group size", cfg.MaxSenders)
	}
	progress := cfg.Progress
	if progress == nil {
		progress = func(string) {}
	}
	pool := engine.New(cfg.Parallel)
	res := &Figure2Result{Run: cfg.Run}

	// Phase 1: the raw protocol curves. Each point is an independent
	// pair of seeded runs; the pool collects rows by index.
	rows, err := engine.Map(pool, cfg.MaxSenders, cfg.Run.Seed,
		func(j engine.Job) (Figure2Row, error) {
			rc := cfg.Run
			rc.ActiveSenders = j.Index + 1
			progress(fmt.Sprintf("senders=%d sequencer", rc.ActiveSenders))
			seq, err := RunDirect(Sequencer, rc)
			if err != nil {
				return Figure2Row{}, err
			}
			progress(fmt.Sprintf("senders=%d token", rc.ActiveSenders))
			tok, err := RunDirect(Token, rc)
			if err != nil {
				return Figure2Row{}, err
			}
			return Figure2Row{
				ActiveSenders: rc.ActiveSenders,
				Sequencer:     seq.Stats,
				Token:         tok.Stats,
				Events:        seq.Events + tok.Events,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	res.CrossoverAfter = res.computeCrossover()

	// Phase 2: every hybrid point runs with the one threshold derived
	// from the complete curves above.
	res.HybridThreshold = res.CrossoverGuess()
	type hybridPoint struct {
		res   Result
		trace []obs.Event
	}
	hybs, err := engine.Map(pool, cfg.MaxSenders, cfg.Run.Seed,
		func(j engine.Job) (hybridPoint, error) {
			rc := cfg.Run
			rc.ActiveSenders = j.Index + 1
			var col *obs.Collector
			if cfg.Trace {
				col = obs.NewCollector()
				rc.Recorder = col
			}
			progress(fmt.Sprintf("senders=%d hybrid", rc.ActiveSenders))
			r, err := runHybridPoint(rc, res.HybridThreshold)
			if err != nil {
				return hybridPoint{}, err
			}
			p := hybridPoint{res: r}
			if col != nil {
				p.trace = col.Events()
			}
			return p, nil
		})
	if err != nil {
		return nil, err
	}
	var traces [][]obs.Event
	for i := range res.Rows {
		res.Rows[i].Hybrid = hybs[i].res.Stats
		res.Rows[i].Events += hybs[i].res.Events
		traces = append(traces, hybs[i].trace)
	}
	if cfg.Trace {
		res.Trace = obs.MergeRuns(traces)
	}
	return res, nil
}

// CrossoverGuess returns the hybrid oracle threshold implied by the
// measured curves: half a sender past the crossover, or the paper's 5.5
// if the curves never cross in range.
func (r *Figure2Result) CrossoverGuess() float64 {
	if c := r.computeCrossover(); c > 0 {
		return float64(c) + 0.5
	}
	return 5.5
}

// computeCrossover finds the last sender count where the sequencer's
// mean latency is below the token's.
func (r *Figure2Result) computeCrossover() int {
	last := 0
	for _, row := range r.Rows {
		if row.Sequencer.Mean < row.Token.Mean {
			last = row.ActiveSenders
		}
	}
	if last == len(r.Rows) {
		return 0 // never crossed
	}
	return last
}

// runHybridPoint measures the switching hybrid at a fixed load with a
// threshold oracle at the crossover.
func runHybridPoint(rc RunConfig, threshold float64) (Result, error) {
	return RunSwitched(rc, switching.ThresholdOracle{Threshold: threshold})
}

// Render prints the figure as the table cmd/switchbench and
// EXPERIMENTS.md use.
func (r *Figure2Result) Render() string {
	rc := r.Run
	var b strings.Builder
	b.WriteString("Figure 2 — message latency (ms) vs. number of active senders\n")
	fmt.Fprintf(&b, "group=%d, %g msgs/s per sender, %d-byte messages, 10 Mbit/s shared medium\n\n",
		rc.Group, rc.RatePerSender, rc.MsgBytes)
	fmt.Fprintf(&b, "%8s %14s %14s %14s  (mean±σ)\n", "senders", "sequencer", "token", "hybrid")
	cell := func(s LatencyStats) string {
		return fmt.Sprintf("%s±%s", FormatMillis(s.Mean), FormatMillis(s.StdDev))
	}
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %14s %14s %14s\n", row.ActiveSenders,
			cell(row.Sequencer), cell(row.Token), cell(row.Hybrid))
	}
	if r.CrossoverAfter > 0 {
		fmt.Fprintf(&b, "\ncrossover: between %d and %d active senders (paper: between 5 and 6)\n",
			r.CrossoverAfter, r.CrossoverAfter+1)
	} else {
		b.WriteString("\ncrossover: not observed in range\n")
	}
	fmt.Fprintf(&b, "hybrid oracle threshold: %.1f active senders\n", r.HybridThreshold)
	b.WriteString("\n" + r.Plot())
	return b.String()
}

// Plot renders a rough ASCII plot of the two curves (s = sequencer,
// t = token, * = both).
func (r *Figure2Result) Plot() string {
	if len(r.Rows) == 0 {
		return ""
	}
	const height = 12
	maxMs := 0.0
	for _, row := range r.Rows {
		if v := Millis(row.Sequencer.Mean); v > maxMs {
			maxMs = v
		}
		if v := Millis(row.Token.Mean); v > maxMs {
			maxMs = v
		}
	}
	if maxMs <= 0 {
		return ""
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", len(r.Rows)*3))
	}
	put := func(col int, ms float64, ch byte) {
		rowIdx := int((ms / maxMs) * float64(height-1))
		if rowIdx > height-1 {
			rowIdx = height - 1
		}
		y := height - 1 - rowIdx
		x := col*3 + 1
		if grid[y][x] != ' ' && grid[y][x] != ch {
			grid[y][x] = '*'
			return
		}
		grid[y][x] = ch
	}
	for i, row := range r.Rows {
		put(i, Millis(row.Sequencer.Mean), 's')
		put(i, Millis(row.Token.Mean), 't')
	}
	var b strings.Builder
	fmt.Fprintf(&b, "latency 0..%.0fms (s=sequencer, t=token, *=both)\n", maxMs)
	for _, line := range grid {
		b.WriteString("| " + string(line) + "\n")
	}
	b.WriteString("+" + strings.Repeat("-", len(r.Rows)*3+1) + "\n  ")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-3d", row.ActiveSenders)
	}
	b.WriteString(" active senders\n")
	return b.String()
}
