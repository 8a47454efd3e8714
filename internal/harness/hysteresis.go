package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core/switching"
	"repro/internal/harness/engine"
	"repro/internal/ids"
	"repro/internal/obs"
)

// HysteresisResult reproduces §7's oscillation observation: "if
// switching too aggressively, the resulting protocol starts
// oscillating. If we make our protocol less aggressive (by adding a
// hysteresis)" the oscillation disappears. The experiment ramps the
// offered load back and forth across the crossover and counts switches
// under a bare threshold oracle vs. a hysteresis oracle.
type HysteresisResult struct {
	Policy string
	// SwitchRequests is how often the controller asked for a switch.
	SwitchRequests uint64
	// SwitchesCompleted is how many switches actually ran (member 0).
	SwitchesCompleted uint64
	// MeanLatency is the app-level mean latency over the run.
	MeanLatency time.Duration
	// Events is the run's DES event count (deterministic per seed).
	Events uint64
	// Trace is the run's event stream when HysteresisConfig.Trace was
	// set.
	Trace []obs.Event `json:"-"`
}

// HysteresisConfig parameterizes the oscillation experiment.
type HysteresisConfig struct {
	// Run is the workload; the ramp spreads hysteresisLevels evenly over
	// its measurement window.
	Run RunConfig
	// Parallel is the comparison's worker count (<= 0 uses GOMAXPROCS);
	// both policies are independent runs and results are identical for
	// any value.
	Parallel int
	// Trace collects each policy run's event stream (tagged by row
	// index in the comparison).
	Trace bool
}

// hysteresisLevels is the repeating active-sender ramp. It hovers
// around the crossover (paper: between 5 and 6).
var hysteresisLevels = []int{5, 6, 5, 6, 5, 6, 5, 6}

// The two policies: the aggressive oracle cuts over at the crossover;
// the hysteresis band switches up there too, but only switches back
// once the load has clearly receded. The asymmetric band is what stops
// a load hovering at the crossover from flapping the protocol.
const (
	hysteresisThreshold = 5.5
	hysteresisLow       = 3.5
	hysteresisHigh      = 5.5
)

// DefaultHysteresisConfig hovers the load around the crossover, two
// seconds per ramp level.
func DefaultHysteresisConfig() HysteresisConfig {
	rc := DefaultRunConfig()
	rc.Measure = 16 * time.Second
	return HysteresisConfig{Run: rc}
}

// RunHysteresis runs the ramp under one policy — the bare threshold
// oracle, or with damped set the hysteresis band — and reports
// oscillation and latency.
func RunHysteresis(cfg HysteresisConfig, damped bool) (*HysteresisResult, error) {
	var oracle switching.Oracle = switching.ThresholdOracle{Threshold: hysteresisThreshold}
	policy := "threshold (aggressive)"
	if damped {
		h, err := switching.NewHysteresisOracle(hysteresisLow, hysteresisHigh)
		if err != nil {
			return nil, err
		}
		oracle, policy = h, "hysteresis"
	}
	rc := cfg.Run
	var col *obs.Collector
	if cfg.Trace {
		col = obs.NewCollector()
		rc.Recorder = col
	}
	run, err := NewSwitchedRun(rc, switching.PaperExact(Factories()...))
	if err != nil {
		return nil, err
	}
	sim := run.Cluster.Sim

	// The time-varying load: the ramp's levels share the measurement
	// window equally.
	loadPeriod := rc.Measure / time.Duration(len(hysteresisLevels))
	level := func() int {
		return hysteresisLevels[int(sim.Now()/loadPeriod)%len(hysteresisLevels)]
	}
	// Per-sender constant-rate ticks, active only while the ramp level
	// includes the sender.
	interval := time.Duration(float64(time.Second) / rc.RatePerSender)
	stopAt := rc.Warmup + rc.Measure
	for s := 0; s < rc.Group; s++ {
		p := ids.ProcID(s)
		var tick func()
		tick = func() {
			if sim.Now() >= stopAt {
				return
			}
			if int(p) < level() {
				run.Cast(p)
			}
			sim.After(interval, tick)
		}
		sim.After(time.Duration(s)*interval/time.Duration(rc.Group), tick)
	}

	ctrl, err := switching.NewController(run.Cluster.Members[0].Switch, oracle,
		func() float64 { return float64(level()) }, pollEvery)
	if err != nil {
		return nil, err
	}
	res := run.Finish()
	out := &HysteresisResult{
		Policy:            policy,
		SwitchRequests:    ctrl.SwitchRequests,
		SwitchesCompleted: run.Cluster.Members[0].Switch.Stats().SwitchesCompleted,
		MeanLatency:       res.Stats.Mean,
		Events:            res.Events,
	}
	if col != nil {
		out.Trace = col.Events()
	}
	return out, nil
}

// RunHysteresisComparison runs the ramp under both policies. The two
// runs are independent simulations, so they execute on a worker pool;
// the oracle is constructed inside each job (the hysteresis oracle is
// stateful) and the row order is fixed: aggressive first.
func RunHysteresisComparison(cfg HysteresisConfig) ([]HysteresisResult, error) {
	pool := engine.New(cfg.Parallel)
	rows, err := engine.Map(pool, 2, cfg.Run.Seed,
		func(j engine.Job) (HysteresisResult, error) {
			r, err := RunHysteresis(cfg, j.Index == 1)
			if err != nil {
				return HysteresisResult{}, err
			}
			return *r, nil
		})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderHysteresis prints the comparison.
func RenderHysteresis(rows []HysteresisResult) string {
	var b strings.Builder
	b.WriteString("Oscillation study (§7): load ramping 5↔6 senders across the crossover\n\n")
	fmt.Fprintf(&b, "%-24s %10s %10s %12s\n", "policy", "requests", "switches", "latency(ms)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %10d %10d %12s\n",
			r.Policy, r.SwitchRequests, r.SwitchesCompleted, FormatMillis(r.MeanLatency))
	}
	return b.String()
}
