package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"
)

// A run is: set-ups, then timed repeats of one seeded virtual workload
// until the measuring budget is spent. Host metrics are medians over the
// repeats; virtual-time metrics come from the first repeat and every
// later repeat must reproduce them bit for bit.
const (
	setups     = 7 // set-ups per run; setup_s is their median
	minRepeats = 3
	// warmupShare of a repeat's virtual duration is executed by each
	// set-up, so pools, the heap and the page tables are warm before the
	// first timed repeat.
	warmupShare = 8
	// traceVirtual is the traced repeat's casting window.
	traceVirtual = 30 * time.Second
)

// options are the knobs of one run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// scale divides every frozen workload size. Only bench_test.go sets
	// it (to 100); no flag does, so every result file is of the frozen sizes.
	scale int
	// traceDir is where a traced run writes its Chrome trace ("": nowhere).
	traceDir string
}

// metricValue is one reported metric: a single value for exact
// virtual-time metrics and counts, a spread for host-side ones.
type metricValue struct {
	Unit string `json:"unit"`
	summary
}

func exact(unit string, v float64) metricValue {
	return metricValue{Unit: unit, summary: summarize([]float64{v})}
}

// result is everything one run of one workload found.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Repeats   int                    `json:"repeats"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Notes     []string               `json:"notes,omitempty"`
	Samples   map[string]int         `json:"samples,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(workload string, o options) *result {
	return &result{Workload: workload, Seed: o.seed, Trace: o.trace, Correct: true,
		Samples: map[string]int{}, Metrics: map[string]metricValue{}}
}

func (r *result) note(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *result) set(name string, v metricValue) { r.Metrics[name] = v }

func (r *result) setExact(name string, v float64) {
	d, ok := findMetric(name)
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	r.set(name, exact(d.Unit, v))
}

// fillZeros reports every declared metric the workload does not measure
// as 0, so each run prints the full declared set.
func (r *result) fillZeros(defs []metricDef) {
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			if d.on(r.Workload) {
				panic("bench: " + r.Workload + " did not measure " + d.Name)
			}
			r.set(d.Name, exact(d.Unit, 0))
		}
	}
}

// hostSeries accumulates the host-side metrics of the timed repeats.
// Host seconds are calibrated CPU seconds (see cpuTime and canary);
// throughput per raw CPU second and per wall second, and the box's
// slowdown the calibration took out, are printed beside it, ungated.
type hostSeries struct {
	opsPerS, cpuOpsPerS, wallOpsPerS, slowdown []float64
	allocsPerOp, bytesPerOp, peakRSS           []float64
}

// add records one repeat: ops done in m, whose CPU time is calibrated
// when counted in calibrated seconds.
func (h *hostSeries) add(ops int, m measurement, calibrated float64) {
	h.opsPerS = append(h.opsPerS, float64(ops)/calibrated)
	h.cpuOpsPerS = append(h.cpuOpsPerS, float64(ops)/m.cpu.Seconds())
	h.wallOpsPerS = append(h.wallOpsPerS, float64(ops)/m.wall.Seconds())
	h.slowdown = append(h.slowdown, m.cpu.Seconds()/calibrated)
	h.allocsPerOp = append(h.allocsPerOp, float64(m.mallocs)/float64(ops))
	h.bytesPerOp = append(h.bytesPerOp, float64(m.bytes)/float64(ops))
	h.peakRSS = append(h.peakRSS, m.peakRSSMB)
}

func (h *hostSeries) report(r *result, setup []float64) {
	r.set("setup_s", metricValue{"s", summarize(setup)})
	r.set("host_ops_per_s", metricValue{"1/s", summarize(h.opsPerS)})
	r.set("cpu_ops_per_s", metricValue{"1/s", summarize(h.cpuOpsPerS)})
	r.set("wall_ops_per_s", metricValue{"1/s", summarize(h.wallOpsPerS)})
	r.set("box_slowdown", metricValue{"count", summarize(h.slowdown)})
	r.set("allocs_per_op", metricValue{"count", summarize(h.allocsPerOp)})
	r.set("alloc_bytes_per_op", metricValue{"B", summarize(h.bytesPerOp)})
	r.set("peak_rss_mb", metricValue{"MB", summarize(h.peakRSS)})
	r.Repeats = len(h.opsPerS)
}

// calibrator takes a run's canary readings. Consecutive timed regions
// share the reading between them.
type calibrator struct {
	rounds int
	last   time.Duration
}

func newCalibrator(o options) *calibrator {
	c := &calibrator{rounds: max(1, canaryRounds/o.scale)}
	c.last = canary(c.rounds)
	return c
}

// calibrated takes a reading and converts cpu, spent since the previous
// reading, into calibrated seconds.
func (c *calibrator) calibrated(cpu time.Duration) float64 {
	before := c.last
	c.last = canary(c.rounds)
	return cpu.Seconds() / slowdown(before, c.last)
}

// timeSetups runs one set-up `setups` times and returns the calibrated
// CPU seconds of each.
func timeSetups(cal *calibrator, one func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < setups; i++ {
		start := cpuTime()
		if err := one(); err != nil {
			return nil, err
		}
		out = append(out, cal.calibrated(cpuTime()-start))
	}
	return out, nil
}

// processStart and runCap bound a run's wall time when the box is being
// starved: past the cap no further repeat is started, so a run ends well
// inside the driver's limit with however many repeats it got.
var processStart = time.Now()

const runCap = 100 * time.Second

// timeRepeats calls one(k) for k = 0, 1, … until o.seconds of wall time
// have been measured (at least minRepeats times).
func timeRepeats(o options, one func(k int) (measurement, error)) error {
	var measured time.Duration
	for k := 0; k < minRepeats || measured.Seconds() < o.seconds; k++ {
		if k > 0 && time.Since(processStart) > runCap {
			break
		}
		m, err := one(k)
		if err != nil {
			return err
		}
		measured += m.wall
	}
	return nil
}

func runWorkload(name string, o options) (*result, error) {
	if o.scale < 1 {
		o.scale = 1
	}
	if name == "fault_mix" {
		if o.trace {
			return traceFaults(o)
		}
		return runFaults(o)
	}
	for _, spec := range trafficSpecs {
		if spec.name == name {
			spec = spec.scaled(o.scale)
			if o.trace {
				return traceTraffic(spec, o)
			}
			return runTrafficWorkload(spec, o)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// --- traffic workloads -------------------------------------------------

func runTrafficWorkload(spec trafficSpec, o options) (*result, error) {
	res := newResult(spec.name, o)
	var ticks []castTick
	var rec *recorder
	cal := newCalibrator(o)
	setup, err := timeSetups(cal, func() error {
		ticks = spec.schedule(o.seed)
		if rec == nil {
			rec = newRecorder(spec.members, len(ticks)*spec.burst)
		}
		_, err := runTraffic(spec, o.seed, ticks, rec, nil, spec.virtual/warmupShare)
		return err
	})
	if err != nil {
		return nil, err
	}

	var host hostSeries
	var first uint64
	err = timeRepeats(o, func(k int) (measurement, error) {
		rp, err := runTraffic(spec, o.seed, ticks, rec, nil, spec.virtual+spec.drain)
		if err != nil {
			return measurement{}, err
		}
		ops := rp.casts * spec.members
		host.add(ops, rp.measurement, cal.calibrated(rp.cpu))
		v := checkTraffic(rec)
		res.Attempted += ops
		res.Failed += v.failed
		for _, n := range v.notes {
			res.note("repeat %d: %s", k, n)
		}
		if d := rec.digest(rp); k == 0 {
			first = d
			virtualTimeMetrics(res, spec, rec, rp)
		} else if d != first {
			res.note("repeat %d: virtual-time digest %x differs from repeat 0's %x", k, d, first)
		}
		return rp.measurement, nil
	})
	if err != nil {
		return nil, err
	}
	host.report(res, setup)
	res.fillZeros(endToEnd)
	return res, nil
}

// virtualTimeMetrics derives the virtual-time results from one checked
// repeat; on paper_switch that includes the workload's own checks.
func virtualTimeMetrics(res *result, spec trafficSpec, rec *recorder, rp repeat) {
	lat := rec.latencies(nil)
	res.Samples["vt_latency"] = len(lat)
	res.setExact("vt_latency_p50_ms", ms(quantile(lat, 0.50)))
	res.setExact("vt_tail_ms", ms(quantile(lat, 0.99)))
	if spec.switchEvery == 0 {
		return
	}
	for _, n := range checkSwitching(rec, rp) {
		res.note("%s", n)
	}
	// Switches alternate direction, and leaving the token protocol costs
	// about twice what leaving the sequencer does (E5): a median over
	// both would sit in the gap between the two modes, so each direction
	// gets its own. Even epochs run slot 0, the sequencer.
	var all, fromSeq, fromTok []time.Duration
	for i, s := range rp.records {
		d := s.finished - s.started
		all = append(all, d)
		if i%2 == 0 {
			fromSeq = append(fromSeq, d)
		} else {
			fromTok = append(fromTok, d)
		}
	}
	hic := rec.hiccups(rp.records)
	for _, ds := range [][]time.Duration{all, fromSeq, fromTok, hic} {
		slices.Sort(ds)
	}
	res.Samples["vt_switch"] = len(all)
	res.setExact("vt_switch_from_seq_ms_p50", ms(quantile(fromSeq, 0.50)))
	res.setExact("vt_switch_from_tok_ms_p50", ms(quantile(fromTok, 0.50)))
	res.setExact("vt_switch_ms_p95", ms(quantile(all, 0.95)))
	res.setExact("vt_hiccup_ms_p50", ms(quantile(hic, 0.50)))
}

// traceTraffic is the separate traced run: one traced repeat of
// traceVirtual for the in-situ shares and counts, the same repeat
// untraced for the tracing overhead, isolated replays of the captured
// frame stream, and one full-length untraced repeat for the
// workload-specific virtual-time results.
func traceTraffic(full trafficSpec, o options) (*result, error) {
	res := newResult(full.name, o)
	spec := full
	if w := traceVirtual / time.Duration(o.scale); spec.virtual > w {
		spec.virtual = w
	}

	fullTicks := full.schedule(o.seed)
	rec := newRecorder(full.members, len(fullTicks)*full.burst)
	rp, err := runTraffic(full, o.seed, fullTicks, rec, nil, full.virtual+full.drain)
	if err != nil {
		return nil, err
	}
	v := checkTraffic(rec)
	res.Attempted, res.Failed = rp.casts*full.members, v.failed
	for _, n := range v.notes {
		res.note("%s", n)
	}
	virtualTimeMetrics(res, full, rec, rp)
	delete(res.Metrics, "vt_tail_ms") // end-to-end: untraced runs report it

	ticks := spec.schedule(o.seed)
	plain, err := runTraffic(spec, o.seed, ticks, rec, nil, spec.virtual+spec.drain)
	if err != nil {
		return nil, err
	}
	plainDigest := rec.digest(plain)
	tr := newTracer()
	traced, err := runTraffic(spec, o.seed, ticks, rec, tr, spec.virtual+spec.drain)
	if err != nil {
		return nil, err
	}
	if d := rec.digest(traced); d != plainDigest {
		res.note("tracing perturbed the simulation: digest %x traced, %x untraced", d, plainDigest)
	}
	if v := checkTraffic(rec); v.failed > 0 {
		res.note("traced repeat: %d failed ops: %v", v.failed, v.notes)
	}
	if err := layerMetrics(res, spec, tr, traced, plain); err != nil {
		return nil, err
	}
	if o.traceDir != "" {
		if err := tr.writeChromeTrace(filepath.Join(o.traceDir, "trace_"+spec.name+".json")); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	res.Repeats = 1
	res.fillZeros(perLayer)
	return res, nil
}

// layerMetrics turns the tracer's aggregates into the per-layer metrics.
func layerMetrics(res *result, spec trafficSpec, tr *tracer, traced, plain repeat) error {
	ops := float64(traced.casts * spec.members)
	wall := float64(traced.wall.Nanoseconds())
	// Raw self times add up to the traced loop's wall by construction;
	// the slack is the clock reads around the loop.
	raw := 0.0
	for _, a := range tr.agg {
		raw += float64(a.selfNS)
	}
	if diff := (raw - wall) / wall; diff > 0.01 || diff < -0.01 {
		res.note("layer self times sum to %.0f ns, traced wall is %.0f ns (%.2f %% apart)", raw, wall, 100*diff)
	}
	self, spanCost := tr.adjustedSelf(wall - float64(plain.wall.Nanoseconds()))
	clean := 0.0 // what is left once the tracer's cost is out: about the untraced wall
	for _, s := range self {
		clean += s
	}
	for l := layerID(0); l < nLayers; l++ {
		if tr.agg[l].spans == 0 {
			continue // bypassed on this workload: reported as 0
		}
		res.setExact(layerNames[l]+".self_ns_per_op", self[l]/ops)
		res.setExact(layerNames[l]+".self_share", 100*self[l]/clean)
		res.setExact(layerNames[l]+".calls_per_op", float64(tr.agg[l].spans)/ops)
	}
	res.setExact("trace.span_cost_ns", spanCost)
	res.setExact("trace.overhead_ratio", wall/float64(plain.wall.Nanoseconds()))

	subFrames := tr.agg[layerFifo].framesDown
	for _, l := range []layerID{layerSeqorder, layerTokenorder, layerFifo} {
		if n := tr.agg[l].framesDown; n > 0 {
			res.setExact(layerNames[l]+".frames_down_per_op", float64(n)/ops)
		}
	}
	res.setExact("switching.wire_frames_per_op", float64(tr.wireFrames)/ops)
	res.setExact("switching.wire_bytes_per_op", float64(tr.wireBytes)/ops)
	res.setExact("switching.batch_factor", float64(subFrames)/float64(tr.wireFrames))
	res.setExact("switching.token_passes_per_op", float64(traced.counts.tokenPasses)/ops)
	if spec.switchEvery > 0 && traced.counts.switches > 0 {
		// Buffered and SwitchesCompleted are both summed over members.
		res.setExact("switching.buffered_per_switch",
			float64(traced.counts.buffered)/float64(traced.counts.switches)*float64(spec.members))
	}
	res.setExact("simnet.frames_delivered_per_op", float64(traced.counts.netDelivered)/ops)
	res.setExact("simnet.wire_bytes_per_op", float64(traced.counts.netWireBytes)/ops)
	res.setExact("des.events_per_op", float64(traced.steps)/ops)
	var timers uint64
	for _, a := range tr.agg {
		timers += a.timers
	}
	res.setExact("des.timers_per_op", float64(timers)/ops)

	// Isolated replays of the captured transport frame-size stream.
	sizes := tr.frameSizes
	if spec.hardened {
		seal, open := isoWire(sizes)
		res.setExact("wire.iso_seal_ns_per_frame", seal.nsPer)
		res.setExact("wire.iso_open_ns_per_frame", open.nsPer)
		res.setExact("wire.iso_allocs_per_frame", seal.allocsPer+open.allocsPer)
		envelope := seal.nsPer*float64(tr.wireFrames) + open.nsPer*float64(tr.handlerFrames)
		share := 0.0
		if self[layerSwitching] > 0 { // 0: a stall in the traced repeat outweighed the layer
			share = 100 * envelope / self[layerSwitching]
		}
		res.setExact("wire.iso_share_of_switching", share)
	}
	mux, err := isoMux(sizes)
	if err != nil {
		return err
	}
	res.setExact("mux.iso_ns_per_frame", mux.nsPer)
	net, err := isoSimnet(spec.netConfig(), sizes)
	if err != nil {
		return err
	}
	res.setExact("simnet.iso_ns_per_frame", net.nsPer)
	depth := 0
	if tr.depthSamples > 0 {
		depth = int(tr.depthSum / tr.depthSamples)
	}
	res.setExact("des.iso_ns_per_event", isoDES(depth, len(sizes)).nsPer)
	return nil
}

// --- fault_mix ---------------------------------------------------------

// Frozen sizes of fault_mix: schedules replayed per repeat, and crash
// seeds of the once-per-run recovery measurement.
const (
	faultSchedules = 250
	faultChunk     = 50 // schedules between two canary readings
	recoverySeeds  = 200
)

func runFaults(o options) (*result, error) {
	res := newResult("fault_mix", o)
	n := max(1, faultSchedules/o.scale)
	warm := max(1, n/warmupShare)
	// replay generates and replays schedules [from, to) of the run, folding
	// everything they report into the digest *h; it returns one note per
	// schedule that violated an invariant.
	replay := func(from, to int, h *uint64) (failures []string, err error) {
		for i := from; i < to; i++ {
			s, err := generateSchedule(o.seed + int64(i))
			if err != nil {
				return nil, err
			}
			fr, err := runSchedule(s)
			if err != nil {
				return nil, err
			}
			if fr.failed {
				failures = append(failures, fmt.Sprintf("schedule %d: %v", s.Seed, fr.violations))
			}
			*h = mix(mix(*h, fr.events), uint64(fr.delivered))
			for _, c := range fr.counters {
				*h = mix(*h, c)
			}
		}
		return failures, nil
	}

	cal := newCalibrator(o)
	setup, err := timeSetups(cal, func() error {
		var h uint64
		_, err := replay(0, warm, &h)
		return err
	})
	if err != nil {
		return nil, err
	}

	var host hostSeries
	var first uint64
	err = timeRepeats(o, func(k int) (measurement, error) {
		// A repeat is timed in chunks with a canary reading between each
		// two: nothing of the program is live between schedules, and
		// within a slow phase the box's speed changes several times a
		// second, so more readings make a steadier clock.
		var m measurement
		var calibrated float64
		var failures []string
		d := digestSeed
		for from := 0; from < n; from += faultChunk {
			var f []string
			var err error
			chunk := measure(func() { f, err = replay(from, min(from+faultChunk, n), &d) })
			if err != nil {
				return m, err
			}
			m.add(chunk)
			calibrated += cal.calibrated(chunk.cpu)
			failures = append(failures, f...)
		}
		host.add(n, m, calibrated)
		res.Attempted += n
		res.Failed += len(failures)
		for _, f := range failures {
			res.note("repeat %d: %s", k, f)
		}
		if k == 0 {
			first = d
		} else if d != first {
			res.note("repeat %d: digest %x differs from repeat 0's %x", k, d, first)
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	recoveryMetrics(res, o)
	host.report(res, setup)
	res.fillZeros(endToEnd)
	return res, nil
}

// recoveryMetrics runs the bounded-recovery experiment over the run's
// crash seeds: crash → every survivor past the switch. The distribution
// has two modes — a crash late in the round costs the rest of the round,
// a crash that loses the token costs a wedge timeout, about one seed in
// six — so only its tail is a stable statistic: p95, with ten of the
// 200 samples beyond it.
func recoveryMetrics(res *result, o options) {
	n := max(1, recoverySeeds/o.scale)
	var durs []time.Duration
	for i := 0; i < n; i++ {
		// Crash seeds are disjoint between runs, so the tail is a fresh
		// sample at every seed (overlapping windows would make it read
		// the same on neighbouring seeds).
		seed := o.seed*int64(n) + int64(i)
		d, err := measureRecovery(seed)
		if err == nil {
			err = checkRecovery(d)
		}
		res.Attempted++
		if err != nil {
			res.Failed++
			res.note("recovery seed %d: %v", seed, err)
			continue
		}
		durs = append(durs, d)
	}
	slices.Sort(durs)
	res.Samples["vt_recovery"] = len(durs)
	res.setExact("vt_tail_ms", ms(quantile(durs, 0.95)))
}

// traceFaults reports fault_mix's per-layer metrics. The chaos runner is
// a black box, so its "layers" are the counters its result exposes, and
// the run is split only into schedule generation and replay.
func traceFaults(o options) (*result, error) {
	res := newResult("fault_mix", o)
	n := max(1, faultSchedules/o.scale)
	var genNS, runNS time.Duration
	var events uint64
	var counters [len(faultCounterNames)]uint64
	for i := 0; i < n; i++ {
		start := time.Now()
		s, err := generateSchedule(o.seed + int64(i))
		if err != nil {
			return nil, err
		}
		mid := time.Now()
		fr, err := runSchedule(s)
		if err != nil {
			return nil, err
		}
		genNS += mid.Sub(start)
		runNS += time.Since(mid)
		res.Attempted++
		if fr.failed {
			res.Failed++
			res.note("schedule %d: %v", s.Seed, fr.violations)
		}
		events += fr.events
		for j, c := range fr.counters {
			counters[j] += c
		}
	}
	ops := float64(n)
	res.setExact("chaos.events_per_op", float64(events)/ops)
	res.setExact("chaos.run_ns_per_event", float64(runNS.Nanoseconds())/float64(events))
	res.setExact("chaos.generate_ns_per_op", float64(genNS.Nanoseconds())/ops)
	for j, name := range faultCounterNames {
		res.setExact(name+"_per_op", float64(counters[j])/ops)
	}
	res.setExact("trace.overhead_ratio", 1) // nothing is wrapped
	res.Repeats = 1
	res.fillZeros(perLayer)
	return res, nil
}
