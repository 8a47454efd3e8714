// Command switchbench regenerates the paper's §7 evaluation:
//
//	switchbench -experiment figure2     # Figure 2: latency vs. active senders
//	switchbench -experiment overhead    # switch overhead near the crossover (~31 ms in the paper)
//	switchbench -experiment hysteresis  # oscillation with and without hysteresis
//	switchbench -experiment p2p         # E11: point-to-point ARQ specialization
//	switchbench -experiment chaos       # E13: fault-schedule sweep vs. the self-healing SP
//	switchbench -experiment all
//
// All experiments run on the deterministic discrete-event simulator, so
// results are reproducible for a given -seed. Sweeps execute their
// independent DES runs on a worker pool (-parallel N, default
// GOMAXPROCS); tables and artifacts are byte-identical for any worker
// count — only the wall clock changes.
//
// With -json <dir>, each experiment also writes a machine-readable
// BENCH_<experiment>.json artifact (schema "switchbench/<experiment>",
// see internal/harness/benchjson.go): per-point latency statistics,
// crossover, chaos pass/fail counts and recovery bounds, DES event
// counts, and a wall-clock/throughput timing section.
//
// With -trace <dir>, experiments that drive the switching layer
// additionally write TRACE_<experiment>.jsonl — the deterministic
// structured event stream (see internal/obs). Convert a trace for
// Perfetto/chrome://tracing with cmd/spviz, or validate it with
// spviz -check.
//
// With -telemetry <dir>, the chaos sweep additionally runs the live
// telemetry layer (internal/obs/telemetry) and writes
// BENCH_telemetry.json there: the windowed time-series and the
// switch-decision audit trail (schema "switchbench/telemetry"),
// deterministic per seed. Compare artifacts across runs with
// cmd/benchdiff.
//
// A flag that only some experiments read (see flagReaders) is rejected
// when set for any other experiment except all, -schedules, -senders
// and -measure must be positive, and -warmup must not be negative (zero
// measures from the start), so a value that would be silently ignored
// or replaced fails before anything runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/harness/engine"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "switchbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("switchbench", flag.ContinueOnError)
	var (
		experiment   = fs.String("experiment", "all", "figure2 | overhead | hysteresis | p2p | chaos | all")
		seed         = fs.Int64("seed", 1, "simulation seed")
		schedules    = fs.Int("schedules", 200, "chaos: fault schedules to sweep")
		chaosSettle  = fs.Duration("chaos-settle", 0, "chaos: settle window after faults heal (0: package default)")
		chaosDrain   = fs.Duration("chaos-drain", 0, "chaos: drain window for liveness probes (0: package default)")
		chaosCorrupt = fs.Bool("chaos-corruption", false, "chaos: add corruption/truncation/garbage faults (E15)")
		chaosForgery = fs.Bool("chaos-forgery", false, "chaos: add forged-frame/wire-replay faults (E16)")
		chaosCrowd   = fs.Bool("chaos-flashcrowd", false, "chaos: add flash-crowd faults, plus the E17 latency/shed study")
		chaosGray    = fs.Bool("chaos-gray", false, "chaos: add gray-failure faults (slow nodes, asymmetric links, flapping), plus the E20 stability study")
		senders      = fs.Int("senders", 10, "figure2: maximum active senders")
		measure      = fs.Duration("measure", 10*time.Second, "figure2: virtual measurement window per point")
		warmup       = fs.Duration("warmup", 2*time.Second, "figure2: virtual warmup discarded from statistics (0: measure from the start)")
		parallel     = fs.Int("parallel", 0, "worker count for sweep runs (<= 0: GOMAXPROCS); results are identical for any value")
		jsonDir      = fs.String("json", "", "directory to write BENCH_<experiment>.json artifacts (empty: no artifacts)")
		traceDir     = fs.String("trace", "", "directory to write TRACE_<experiment>.jsonl event streams (empty: no traces)")
		telemetryDir = fs.String("telemetry", "", "directory to write the chaos sweep's telemetry (BENCH_telemetry.json; empty: telemetry off)")
		quiet        = fs.Bool("quiet", false, "suppress progress output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if err := checkFlagScope(*experiment, set); err != nil {
		return err
	}
	for _, f := range []struct {
		name, want string
		ok         bool
	}{
		{"schedules", "positive", *schedules > 0},
		{"senders", "positive", *senders > 0},
		{"measure", "positive", *measure > 0},
		{"warmup", "zero or positive", *warmup >= 0},
	} {
		if !f.ok {
			return fmt.Errorf("-%s %s: must be %s", f.name, fs.Lookup(f.name).Value, f.want)
		}
	}
	// Validate output directories before running anything: experiments
	// take minutes, and a typo'd path should fail in milliseconds.
	for _, d := range []struct{ flag, dir string }{{"-json", *jsonDir}, {"-trace", *traceDir}, {"-telemetry", *telemetryDir}} {
		if err := ensureWritableDir(d.flag, d.dir); err != nil {
			return err
		}
	}
	rc := harness.DefaultRunConfig()
	rc.Seed = *seed
	rc.Measure = *measure
	rc.Warmup = *warmup
	// The resolved worker count (for configs and the timing section).
	workers := engine.New(*parallel).Workers()
	// Sweep jobs report progress from worker goroutines; serialize the
	// writes so lines do not interleave.
	var progressMu sync.Mutex
	progress := func(msg string) {
		if !*quiet {
			progressMu.Lock()
			fmt.Fprintf(os.Stderr, "  ... %s\n", msg)
			progressMu.Unlock()
		}
	}
	// writeBench emits one BENCH_<name>.json artifact under -json.
	writeBench := func(name string, art any) error {
		if *jsonDir == "" {
			return nil
		}
		b, err := harness.EncodeBench(art)
		if err != nil {
			return err
		}
		path := filepath.Join(*jsonDir, "BENCH_"+name+".json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		progress("wrote " + path)
		return nil
	}
	// writeTrace emits one TRACE_<name>.jsonl event stream under -trace.
	// An experiment that recorded nothing still writes the (empty) file,
	// so downstream tooling can rely on the set of outputs.
	writeTrace := func(name string, events []obs.Event) error {
		if *traceDir == "" {
			return nil
		}
		b, err := obs.MarshalJSONL(events)
		if err != nil {
			return err
		}
		path := filepath.Join(*traceDir, "TRACE_"+name+".jsonl")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		progress("wrote " + path)
		return nil
	}
	tracing := *traceDir != ""

	doFigure2 := func() error {
		fmt.Println("=== E3/E4: Figure 2 ===")
		cfg := harness.Figure2Config{
			Run:        rc,
			MaxSenders: *senders,
			Parallel:   workers,
			Trace:      tracing,
			Progress:   progress,
		}
		start := time.Now()
		res, err := harness.RunFigure2(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		if err := writeTrace("figure2", res.Trace); err != nil {
			return err
		}
		art := harness.NewBenchFigure2(res)
		art.SetTiming(time.Since(start), workers)
		return writeBench("figure2", art)
	}
	doOverhead := func() error {
		fmt.Println("=== E5: switching overhead ===")
		cfg := harness.DefaultOverheadConfig()
		cfg.Run.Seed = *seed
		cfg.Parallel = workers
		cfg.Trace = tracing
		start := time.Now()
		// The single §7 measurement is the sweep's cell at the default
		// load and direction.
		res, rows, err := harness.RunOverheadSweep(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		fmt.Println(harness.RenderOverheadSweep(rows))
		if tracing {
			// Run 0 is the single §7 measurement; the sweep rows follow
			// in their deterministic grid order.
			traces := [][]obs.Event{res.Trace}
			for _, r := range rows {
				traces = append(traces, r.Trace)
			}
			if err := writeTrace("overhead", obs.MergeRuns(traces)); err != nil {
				return err
			}
		}
		art := harness.NewBenchOverhead(*seed, res, rows)
		art.SetTiming(time.Since(start), workers)
		return writeBench("overhead", art)
	}
	doHysteresis := func() error {
		fmt.Println("=== E6: oscillation / hysteresis ===")
		cfg := harness.DefaultHysteresisConfig()
		cfg.Run.Seed = *seed
		cfg.Parallel = workers
		cfg.Trace = tracing
		start := time.Now()
		rows, err := harness.RunHysteresisComparison(cfg)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderHysteresis(rows))
		if tracing {
			traces := make([][]obs.Event, len(rows))
			for i, r := range rows {
				traces[i] = r.Trace
			}
			if err := writeTrace("hysteresis", obs.MergeRuns(traces)); err != nil {
				return err
			}
		}
		art := harness.NewBenchHysteresis(*seed, rows)
		art.SetTiming(time.Since(start), workers)
		return writeBench("hysteresis", art)
	}
	doChaos := func() error {
		fmt.Println("=== E13: chaos sweep ===")
		cfg := harness.DefaultChaosSweepConfig()
		cfg.Seed = *seed
		cfg.Schedules = *schedules
		cfg.Run.Settle = *chaosSettle
		cfg.Run.Drain = *chaosDrain
		cfg.Gen.Corruption = *chaosCorrupt
		cfg.Gen.Forgery = *chaosForgery
		cfg.Gen.FlashCrowd = *chaosCrowd
		cfg.Gen.GrayFailure = *chaosGray
		cfg.Parallel = workers
		cfg.Trace = tracing
		cfg.Telemetry = *telemetryDir != ""
		cfg.Progress = progress
		start := time.Now()
		res, err := harness.RunChaosSweep(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		if err := writeTrace("chaos", res.Trace); err != nil {
			return err
		}
		art := harness.NewBenchChaos(*seed, res)
		art.SetTiming(time.Since(start), workers)
		if err := writeBench("chaos", art); err != nil {
			return err
		}
		if *telemetryDir != "" {
			tart := harness.NewBenchTelemetry(*seed, telemetry.Interval, res)
			tart.SetTiming(time.Since(start), workers)
			b, err := harness.EncodeBench(tart)
			if err != nil {
				return err
			}
			path := filepath.Join(*telemetryDir, "BENCH_telemetry.json")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				return err
			}
			progress("wrote " + path)
		}
		// The artifact records failures; the exit code still flags them.
		if len(res.Failures) > 0 {
			return fmt.Errorf("%d of %d schedules violated invariants", len(res.Failures), res.Schedules)
		}
		return nil
	}
	doP2P := func() error {
		fmt.Println("=== E11: point-to-point specialization ===")
		cfg := harness.DefaultP2PConfig()
		cfg.Seed = *seed
		cfg.Parallel = workers
		start := time.Now()
		rows, err := harness.RunP2PSweep(cfg)
		if err != nil {
			return err
		}
		fmt.Println(harness.RenderP2PTable(rows))
		art := harness.NewBenchP2P(*seed, rows)
		art.SetTiming(time.Since(start), workers)
		return writeBench("p2p", art)
	}

	switch *experiment {
	case "figure2":
		return doFigure2()
	case "overhead":
		return doOverhead()
	case "hysteresis":
		return doHysteresis()
	case "p2p":
		return doP2P()
	case "chaos":
		return doChaos()
	case "all":
		if err := doFigure2(); err != nil {
			return err
		}
		if err := doOverhead(); err != nil {
			return err
		}
		if err := doHysteresis(); err != nil {
			return err
		}
		if err := doP2P(); err != nil {
			return err
		}
		return doChaos()
	default:
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
}

// flagReaders names, for each flag that only some experiments read, the
// experiments that read it. -experiment all reads every flag.
var flagReaders = map[string][]string{
	"senders":          {"figure2"},
	"measure":          {"figure2"},
	"warmup":           {"figure2"},
	"trace":            {"figure2", "overhead", "hysteresis", "chaos"},
	"schedules":        {"chaos"},
	"telemetry":        {"chaos"},
	"chaos-settle":     {"chaos"},
	"chaos-drain":      {"chaos"},
	"chaos-corruption": {"chaos"},
	"chaos-forgery":    {"chaos"},
	"chaos-flashcrowd": {"chaos"},
	"chaos-gray":       {"chaos"},
}

// checkFlagScope rejects every flag in set that the experiment does not
// read, naming each flag and the experiments that do read it.
func checkFlagScope(experiment string, set []string) error {
	if experiment == "all" {
		return nil
	}
	var ignored []string
	for _, name := range set {
		readers, scoped := flagReaders[name]
		if scoped && !slices.Contains(readers, experiment) {
			ignored = append(ignored, fmt.Sprintf("-%s (read by %s, all)", name, strings.Join(readers, ", ")))
		}
	}
	if len(ignored) > 0 {
		return fmt.Errorf("-experiment %s ignores %s", experiment, strings.Join(ignored, "; "))
	}
	return nil
}

// ensureWritableDir creates the output directory if needed and proves
// it is writable with a throwaway probe file. An empty dir means the
// flag is unset and nothing is checked.
func ensureWritableDir(flagName, dir string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("%s %s: %w", flagName, dir, err)
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return fmt.Errorf("%s %s: not writable: %w", flagName, dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return nil
}
