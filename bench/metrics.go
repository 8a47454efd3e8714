package main

// metricDef declares one metric: the vocabulary later issues claim
// against. BENCHMARK.json carries the same names, units, directions and
// gates; bench_test.go keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which the metric may
	// worsen before -compare calls a change a regression. These are the
	// bounds ISSUE 11 set; they apply between two result files of one seed,
	// and where the spread of the repeats is wider than the bound -compare
	// answers "unresolved" instead of passing the pair.
	Bound float64
	// Gate is the bound BENCHMARK.json carries, which the driver applies
	// to medians of runs at different seeds, taken whenever the box lets
	// them run. The driver's contract wants it at three times the
	// interquartile spread of ten such runs, and at most 0.25; where that
	// is wider than Bound, the README says so and why.
	Gate float64
	// On lists the workloads the metric is measured on; elsewhere it is
	// printed as 0 (nil: every workload).
	On []string
}

var (
	trafficOnly = []string{"seq_steady", "tok_steady", "paper_switch"}
	switchOnly  = []string{"paper_switch"}
	faultOnly   = []string{"fault_mix"}
)

// endToEnd are the metrics a user of the system would see, reported by
// untraced runs on every workload.
//
// host_ops_per_s and setup_s are in calibrated seconds (stats.go). The
// issue bounds both at 10 %, and asks that six repeats of host_ops_per_s
// range over less than 10 % of their median; this sandbox does not allow
// it. Ten runs at ten seeds, taken across its fast and slow phases, spread
// by 1.5 to 10 % (interquartile) in host_ops_per_s and by 1.4 to 6.5 % in
// setup_s (calibration.json), so the driver's gate is the widest
// the contract has, and a 20 % loss of throughput passes it. The 10 %
// instrument is -compare, which says "unresolved" when it cannot tell,
// and a claimed gain needs alternating pairs on top (choosing-metrics §8).
//
// vt_tail_ms is the workload's virtual-time tail, at the highest of
// p95/p99 with ten samples beyond it: p99 of cast→delivery latency on
// the traffic workloads, p95 of crash→recovered on fault_mix. At one seed
// it is exact, and Bound is the issue's 2 %. The gate is what runs at
// different seeds need: paper_switch's p99 moves 3 % (interquartile) with
// the phase between casts and switches.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10, Gate: 0.25},
	{Name: "host_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Gate: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.02, Gate: 0.02},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.05, Gate: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10, Gate: 0.10},
	{Name: "vt_tail_ms", Unit: "ms", Better: "lower", Bound: vtBound, Gate: 0.10},
}

// workloadVT are virtual-time results only some workloads have. They
// are exact per seed. BENCHMARK.json lists them with the per-layer
// metrics (its end-to-end metrics must exist on every workload), so the
// driver does not gate them; -compare does, like any end-to-end metric.
var workloadVT = []metricDef{
	{Name: "vt_latency_p50_ms", Unit: "ms", Better: "lower", Bound: vtBound, On: trafficOnly},
	{Name: "vt_switch_from_seq_ms_p50", Unit: "ms", Better: "lower", Bound: vtBound, On: switchOnly},
	{Name: "vt_switch_from_tok_ms_p50", Unit: "ms", Better: "lower", Bound: vtBound, On: switchOnly},
	{Name: "vt_switch_ms_p95", Unit: "ms", Better: "lower", Bound: vtBound, On: switchOnly},
	{Name: "vt_hiccup_ms_p50", Unit: "ms", Better: "lower", Bound: vtBound, On: switchOnly},
}

// vtBound is the issue's regression bound of every virtual-time metric.
const vtBound = 0.02

// perLayer are the metrics of single layers, reported by traced runs.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(on []string, unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better, On: on})
		}
	}
	// Each ordering protocol runs on one steady workload and is bypassed
	// on the other; paper_switch alternates between them.
	runsOn := map[string][]string{
		"seqorder":   {"seq_steady", "paper_switch"},
		"tokenorder": {"tok_steady", "paper_switch"},
	}
	for _, l := range layerNames {
		on := trafficOnly
		if o, ok := runsOn[l]; ok {
			on = o
		}
		add(on, "ns", "lower", l+".self_ns_per_op")
		add(on, "%", "lower", l+".self_share")
		add(on, "count", "lower", l+".calls_per_op")
	}
	add(runsOn["seqorder"], "count", "lower", "seqorder.frames_down_per_op")
	add(runsOn["tokenorder"], "count", "lower", "tokenorder.frames_down_per_op")
	add(trafficOnly, "count", "lower", "fifo.frames_down_per_op", "switching.wire_frames_per_op")
	add(trafficOnly, "B", "lower", "switching.wire_bytes_per_op")
	add(trafficOnly, "count", "higher", "switching.batch_factor")
	add(trafficOnly, "count", "lower", "switching.token_passes_per_op")
	add(switchOnly, "count", "lower", "switching.buffered_per_switch")
	add(trafficOnly, "count", "lower", "simnet.frames_delivered_per_op")
	add(trafficOnly, "B", "lower", "simnet.wire_bytes_per_op")
	add(trafficOnly, "count", "lower", "des.events_per_op", "des.timers_per_op")
	add([]string{"seq_steady", "tok_steady"}, "ns", "lower", "wire.iso_seal_ns_per_frame", "wire.iso_open_ns_per_frame")
	add([]string{"seq_steady", "tok_steady"}, "count", "lower", "wire.iso_allocs_per_frame")
	add([]string{"seq_steady", "tok_steady"}, "%", "lower", "wire.iso_share_of_switching")
	add(trafficOnly, "ns", "lower", "mux.iso_ns_per_frame", "simnet.iso_ns_per_frame", "des.iso_ns_per_event")
	add(faultOnly, "count", "lower", "chaos.events_per_op")
	add(faultOnly, "ns", "lower", "chaos.run_ns_per_event", "chaos.generate_ns_per_op")
	for _, n := range faultCounterNames {
		add(faultOnly, "count", "lower", n+"_per_op")
	}
	add(nil, "count", "lower", "trace.overhead_ratio")
	add(trafficOnly, "ns", "lower", "trace.span_cost_ns")
	out = append(out, workloadVT...)
	return out
}

func (d metricDef) on(workload string) bool {
	if d.On == nil {
		return true
	}
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return false
}

func findMetric(name string) (metricDef, bool) {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

var workloadNames = []string{"seq_steady", "tok_steady", "paper_switch", "fault_mix"}

var workloadWhy = map[string]string{
	"seq_steady":   "small messages on a fast wire through seqorder+fifo under the hardened profile: per-message host overhead is the whole bill, tokenorder is bypassed",
	"tok_steady":   "the same frames through tokenorder instead: an ordering-layer change shows here and not on seq_steady, a shared-layer change moves both",
	"paper_switch": "the paper's own experiment, plain frames and a switch every 500 ms: SP core, des and simnet do the work, envelope and batcher are bypassed",
	"fault_mix":    "chaos schedules with every fault class composed: the recovery, repair, rejection and shedding paths instead of the steady fast path",
}
