package harness

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core/switching"
	"repro/internal/harness/engine"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
)

// ChaosSweepConfig parameterizes E13: a sweep of seeded fault schedules
// against the recovery-enabled switching protocol, plus the
// bounded-recovery measurement for crash-during-round schedules.
type ChaosSweepConfig struct {
	// Schedules is how many seeded schedules to run (default 200).
	Schedules int
	// Seed offsets the schedule seeds (schedule i uses Seed+i).
	Seed int64
	// Gen tunes the fault-schedule generator.
	Gen chaos.GenConfig
	// FlashCrowd adds the overload tier: the generator draws flash-crowd
	// windows (Gen.FlashCrowd), and the sweep appends the E17 latency/
	// shed-rate study (RunFlashCrowd with its defaults, seeded from
	// Seed) to the result.
	FlashCrowd bool
	// GrayFailure adds the gray tier: the generator draws slow-node,
	// asymmetric-link and flapping windows (Gen.GrayFailure), and the
	// sweep appends the E20 stability study (RunGrayStudy with its
	// defaults, seeded from Seed) to the result.
	GrayFailure bool
	// Run tunes the schedule runner.
	Run chaos.RunConfig
	// RecoverySeeds is how many crash-during-round runs to measure for
	// the recovery-time bound (default 25).
	RecoverySeeds int
	// Parallel is the sweep's worker count (<= 0 uses GOMAXPROCS).
	// Every schedule is an independent seeded simulation, so the
	// aggregated result is identical for any value.
	Parallel int
	// Trace collects the full event stream of every schedule run,
	// tagged by run index, into Result.Trace.
	Trace bool
	// Telemetry, when set, runs the windowed sampler and switch-decision
	// audit trail on every schedule run; the per-run series merge into
	// Result.Windows/Rounds (tagged by run index) and the cumulative
	// telemetry registries into Result.Telemetry.
	Telemetry *telemetry.Config
	// Progress receives per-phase status lines (optional). It may be
	// called concurrently from worker goroutines.
	Progress func(string)
}

// DefaultChaosSweepConfig matches the E13 acceptance run.
func DefaultChaosSweepConfig() ChaosSweepConfig {
	return ChaosSweepConfig{Schedules: 200, Seed: 1, RecoverySeeds: 25}
}

// ChaosSweepResult aggregates a sweep.
type ChaosSweepResult struct {
	Schedules int
	// KindCounts is how many schedules contained each fault class.
	KindCounts map[chaos.Kind]int
	// Failures holds every run with invariant violations (empty on a
	// passing sweep).
	Failures []*chaos.Result
	// Stats sums the live members' switching stats over all runs.
	Stats switching.Stats
	// Delivered is the total application deliveries over all runs.
	Delivered int
	// WorstRecovery is the worst crash-during-round recovery time
	// observed; Bound is the asserted limit (10× the token interval).
	WorstRecovery time.Duration
	Bound         time.Duration
	// Events is the total DES event count over all schedule runs
	// (deterministic per base seed).
	Events uint64
	// Forged and Replayed total the adversary's wire-level injections
	// over all runs (zero on forgery-free sweeps).
	Forged   uint64
	Replayed uint64
	// Metrics merges the per-member registries of every schedule run.
	Metrics *obs.Metrics
	// Trace is the merged event stream (runs in index order) when
	// ChaosSweepConfig.Trace was set.
	Trace []obs.Event
	// Windows and Rounds merge the per-run telemetry series in run-index
	// order when ChaosSweepConfig.Telemetry was set.
	Windows []telemetry.Window
	Rounds  []telemetry.Round
	// FlashCrowd holds the E17 rows when ChaosSweepConfig.FlashCrowd was
	// set.
	FlashCrowd []FlashCrowdRow
	// Gray holds the E20 rows when ChaosSweepConfig.GrayFailure was set.
	Gray []GrayStudyRow
}

// RunChaosSweep runs the sweep and the recovery-bound family.
func RunChaosSweep(cfg ChaosSweepConfig) (*ChaosSweepResult, error) {
	if cfg.Schedules == 0 {
		cfg.Schedules = 200
	}
	if cfg.RecoverySeeds == 0 {
		cfg.RecoverySeeds = 25
	}
	ti := chaos.TokenInterval
	progress := cfg.Progress
	if progress == nil {
		progress = func(string) {}
	}
	if cfg.FlashCrowd {
		cfg.Gen.FlashCrowd = true
	}
	if cfg.GrayFailure {
		cfg.Gen.GrayFailure = true
	}

	res := &ChaosSweepResult{
		Schedules:  cfg.Schedules,
		KindCounts: map[chaos.Kind]int{},
		Bound:      10 * ti,
		Metrics:    obs.NewMetrics(),
	}

	// Every schedule replay is one pool job, seeded from (Seed, index).
	// Runs are collected by index and aggregated sequentially below, so
	// KindCounts, Failures order, every summed stat, the merged metrics,
	// and the merged trace are identical for any worker count.
	type chaosRun struct {
		res   *chaos.Result
		trace []obs.Event
	}
	pool := engine.New(cfg.Parallel)
	var done atomic.Int64
	runs, err := engine.Map(pool, cfg.Schedules, cfg.Seed,
		func(j engine.Job) (chaosRun, error) {
			sched, err := chaos.Generate(j.Seed, cfg.Gen)
			if err != nil {
				return chaosRun{}, err
			}
			rc := cfg.Run
			if cfg.Telemetry != nil {
				rc.Telemetry = cfg.Telemetry
			}
			var col *obs.Collector
			if cfg.Trace {
				col = obs.NewCollector()
				rc.Recorder = col
			}
			r, err := chaos.Run(sched, rc)
			if err != nil {
				return chaosRun{}, fmt.Errorf("harness: chaos seed %d: %w", j.Seed, err)
			}
			if n := done.Add(1); n%50 == 0 {
				progress(fmt.Sprintf("chaos sweep %d/%d schedules", n, cfg.Schedules))
			}
			out := chaosRun{res: r}
			if col != nil {
				out.trace = col.Events()
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	var traces [][]obs.Event
	var windows [][]telemetry.Window
	var rounds [][]telemetry.Round
	for _, run := range runs {
		r := run.res
		for _, k := range r.Kinds {
			res.KindCounts[k]++
		}
		if r.Failed() {
			res.Failures = append(res.Failures, r)
		}
		res.Delivered += r.Delivered
		res.Events += r.Events
		res.Forged += r.Forged
		res.Replayed += r.Replayed
		res.Stats.Add(r.Stats)
		res.Metrics.Merge(r.Metrics)
		traces = append(traces, run.trace)
		windows = append(windows, r.Windows)
		rounds = append(rounds, r.Rounds)
	}
	if cfg.Trace {
		res.Trace = obs.MergeRuns(traces)
	}
	if cfg.Telemetry != nil {
		res.Windows = telemetry.MergeWindows(windows)
		res.Rounds = telemetry.MergeRounds(rounds)
	}

	recov, err := engine.Map(pool, cfg.RecoverySeeds, cfg.Seed,
		func(j engine.Job) (time.Duration, error) {
			d, err := chaos.MeasureRecovery(j.Seed, 4, ti)
			if err != nil {
				return 0, fmt.Errorf("harness: recovery bound seed %d: %w", j.Seed, err)
			}
			return d, nil
		})
	if err != nil {
		return nil, err
	}
	for _, d := range recov {
		if d > res.WorstRecovery {
			res.WorstRecovery = d
		}
	}
	progress("recovery bound family done")

	if cfg.FlashCrowd {
		rows, err := RunFlashCrowd(FlashCrowdConfig{Seed: cfg.Seed, Parallel: cfg.Parallel})
		if err != nil {
			return nil, err
		}
		res.FlashCrowd = rows
		progress("flash-crowd study done")
	}

	if cfg.GrayFailure {
		rows, err := RunGrayStudy(GrayStudyConfig{Seed: cfg.Seed, Parallel: cfg.Parallel})
		if err != nil {
			return nil, err
		}
		res.Gray = rows
		progress("gray stability study done")
	}
	return res, nil
}

// Render prints the E13 summary table.
func (r *ChaosSweepResult) Render() string {
	var b strings.Builder
	b.WriteString("Chaos sweep (E13): seeded fault schedules vs. the self-healing SP\n\n")
	fmt.Fprintf(&b, "schedules run            %10d\n", r.Schedules)
	fmt.Fprintf(&b, "  with crashes           %10d\n", r.KindCounts[chaos.KindCrash])
	fmt.Fprintf(&b, "  with partitions        %10d\n", r.KindCounts[chaos.KindPartition])
	fmt.Fprintf(&b, "  with drop/dup bursts   %10d\n", r.KindCounts[chaos.KindBurst])
	if n := r.KindCounts[chaos.KindCorrupt] + r.KindCounts[chaos.KindTruncate] + r.KindCounts[chaos.KindGarbage]; n > 0 {
		fmt.Fprintf(&b, "  with bit corruption    %10d\n", r.KindCounts[chaos.KindCorrupt])
		fmt.Fprintf(&b, "  with truncation        %10d\n", r.KindCounts[chaos.KindTruncate])
		fmt.Fprintf(&b, "  with garbage injection %10d\n", r.KindCounts[chaos.KindGarbage])
	}
	if n := r.KindCounts[chaos.KindForge] + r.KindCounts[chaos.KindReplay]; n > 0 {
		fmt.Fprintf(&b, "  with forged frames     %10d\n", r.KindCounts[chaos.KindForge])
		fmt.Fprintf(&b, "  with wire replays      %10d\n", r.KindCounts[chaos.KindReplay])
	}
	if n := r.KindCounts[chaos.KindFlashCrowd]; n > 0 {
		fmt.Fprintf(&b, "  with flash crowds      %10d\n", n)
	}
	if n := r.KindCounts[chaos.KindSlowNode] + r.KindCounts[chaos.KindLinkFault] + r.KindCounts[chaos.KindFlap]; n > 0 {
		fmt.Fprintf(&b, "  with slow nodes        %10d\n", r.KindCounts[chaos.KindSlowNode])
		fmt.Fprintf(&b, "  with asymmetric links  %10d\n", r.KindCounts[chaos.KindLinkFault])
		fmt.Fprintf(&b, "  with flapping links    %10d\n", r.KindCounts[chaos.KindFlap])
	}
	fmt.Fprintf(&b, "invariant violations     %10d\n", len(r.Failures))
	fmt.Fprintf(&b, "app deliveries           %10d\n", r.Delivered)
	fmt.Fprintf(&b, "switches completed       %10d\n", r.Stats.SwitchesCompleted)
	fmt.Fprintf(&b, "wedge timeouts           %10d\n", r.Stats.WedgeTimeouts)
	fmt.Fprintf(&b, "tokens regenerated       %10d\n", r.Stats.TokensRegenerated)
	fmt.Fprintf(&b, "switch rounds retried    %10d\n", r.Stats.SwitchesAborted)
	fmt.Fprintf(&b, "forced epoch advances    %10d\n", r.Stats.ForcedAdvances)
	// The defences are on in every tier (one stack), so their counters
	// print in every tier.
	fmt.Fprintf(&b, "malformed pkts dropped   %10d\n", r.Stats.MalformedDropped)
	fmt.Fprintf(&b, "peers quarantined        %10d\n", r.Stats.Quarantines)
	fmt.Fprintf(&b, "forged frames injected   %10d\n", r.Forged)
	fmt.Fprintf(&b, "captured frames replayed %10d\n", r.Replayed)
	fmt.Fprintf(&b, "auth rejections          %10d\n", r.Stats.AuthFailed)
	fmt.Fprintf(&b, "frames shed              %10d\n", r.Stats.Shed)
	fmt.Fprintf(&b, "backpressure pauses      %10d\n", r.Stats.Backpressured)
	fmt.Fprintf(&b, "sends retried            %10d\n", r.Stats.RetriedSends)
	fmt.Fprintf(&b, "graded suspicions        %10d\n", r.Stats.SuspicionsRaised)
	fmt.Fprintf(&b, "graded clears            %10d\n", r.Stats.SuspicionsCleared)
	fmt.Fprintf(&b, "flap penalties           %10d\n", r.Stats.FlapPenalties)
	fmt.Fprintf(&b, "degraded-mode skips      %10d\n", r.Stats.DegradedSkips)
	fmt.Fprintf(&b, "peers re-included        %10d\n", r.Stats.Reincludes)
	fmt.Fprintf(&b, "worst in-round recovery  %10s (bound %s)\n",
		FormatMillis(r.WorstRecovery), FormatMillis(r.Bound))
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "\nFAIL seed %d (%v):\n", f.Seed, f.Kinds)
		for _, v := range f.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	if len(r.FlashCrowd) > 0 {
		b.WriteString("\n")
		b.WriteString(RenderFlashCrowd(r.FlashCrowd))
	}
	if len(r.Gray) > 0 {
		b.WriteString("\n")
		b.WriteString(RenderGrayStudy(r.Gray))
	}
	return b.String()
}
