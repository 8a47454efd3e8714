package harness

import (
	"encoding/json"
	"time"

	"repro/internal/chaos"
	"repro/internal/core/switching"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
)

// This file defines the machine-readable BENCH_*.json artifacts that
// cmd/switchbench emits next to its human-readable tables — the repo's
// perf trajectory. Every artifact carries:
//
//   - a versioned schema tag ("switchbench/<experiment>", version N),
//   - the experiment's deterministic results (per-point LatencyStats in
//     milliseconds, crossover, pass/fail counts, recovery bounds, and
//     per-run DES event counts), and
//   - a "timing" section with the only non-deterministic fields:
//     wall-clock duration, worker count, and events/sec throughput.
//
// For a fixed seed the artifact minus its timing section is
// byte-identical for any worker count; ScrubTiming zeroes the section
// for such comparisons (see the determinism tests).

// BenchSchemaVersion tags every artifact with its layout, so a diff
// across an incompatible field change shows as a version change instead
// of as silently renamed or reinterpreted leaves.
const BenchSchemaVersion = 8

// BenchTiming is the non-deterministic wall-clock section of an
// artifact.
type BenchTiming struct {
	WallMS       float64 `json:"wall_ms"`
	Parallel     int     `json:"parallel"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// BenchMeta is the envelope shared by every artifact.
type BenchMeta struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Seed    int64  `json:"seed"`
	// Events is the experiment's total DES event count (deterministic
	// per seed).
	Events uint64      `json:"events"`
	Timing BenchTiming `json:"timing"`
}

func benchMeta(experiment string, seed int64, events uint64) BenchMeta {
	return BenchMeta{Schema: "switchbench/" + experiment, Version: BenchSchemaVersion,
		Seed: seed, Events: events}
}

// SetTiming fills the wall-clock section after the experiment ran.
func (m *BenchMeta) SetTiming(wall time.Duration, parallel int) {
	m.Timing = BenchTiming{WallMS: Millis(wall), Parallel: parallel}
	if wall > 0 {
		m.Timing.EventsPerSec = float64(m.Events) / wall.Seconds()
	}
}

// ScrubTiming zeroes the non-deterministic section so two artifacts can
// be compared byte-for-byte across worker counts.
func (m *BenchMeta) ScrubTiming() { m.Timing = BenchTiming{} }

// BenchStats is LatencyStats in milliseconds.
type BenchStats struct {
	Count    int                `json:"count"`
	MeanMS   float64            `json:"mean_ms"`
	StdDevMS float64            `json:"stddev_ms"`
	MinMS    float64            `json:"min_ms"`
	P50MS    float64            `json:"p50_ms"`
	P95MS    float64            `json:"p95_ms"`
	P99MS    float64            `json:"p99_ms"`
	MaxMS    float64            `json:"max_ms"`
	Hist     *obs.HistogramJSON `json:"hist,omitempty"`
}

func toBenchStats(s LatencyStats) BenchStats {
	out := BenchStats{
		Count:    s.Count,
		MeanMS:   Millis(s.Mean),
		StdDevMS: Millis(s.StdDev),
		MinMS:    Millis(s.Min),
		P50MS:    Millis(s.P50),
		P95MS:    Millis(s.P95),
		P99MS:    Millis(s.P99),
		MaxMS:    Millis(s.Max),
	}
	if s.Hist.Count() > 0 {
		h := s.Hist.ToJSON()
		out.Hist = &h
	}
	return out
}

// EncodeBench marshals one artifact as indented JSON with a trailing
// newline (stable key order, so equal values give equal bytes).
func EncodeBench(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// BenchFigure2 is the BENCH_figure2.json artifact.
type BenchFigure2 struct {
	BenchMeta
	Group           int               `json:"group"`
	RatePerSender   float64           `json:"rate_per_sender"`
	MsgBytes        int               `json:"msg_bytes"`
	MeasureMS       float64           `json:"measure_ms"`
	Rows            []BenchFigure2Row `json:"rows"`
	CrossoverAfter  int               `json:"crossover_after"`
	HybridThreshold float64           `json:"hybrid_threshold"`
}

// BenchFigure2Row is one sender-count point.
type BenchFigure2Row struct {
	Senders   int        `json:"senders"`
	Sequencer BenchStats `json:"sequencer"`
	Token     BenchStats `json:"token"`
	Hybrid    BenchStats `json:"hybrid"`
	Events    uint64     `json:"events"`
}

// NewBenchFigure2 converts a Figure-2 result into its artifact.
func NewBenchFigure2(res *Figure2Result) *BenchFigure2 {
	rc := res.Run
	out := &BenchFigure2{
		Group:           rc.Group,
		RatePerSender:   rc.RatePerSender,
		MsgBytes:        rc.MsgBytes,
		MeasureMS:       Millis(rc.Measure),
		CrossoverAfter:  res.CrossoverAfter,
		HybridThreshold: res.HybridThreshold,
	}
	var events uint64
	for _, row := range res.Rows {
		events += row.Events
		out.Rows = append(out.Rows, BenchFigure2Row{
			Senders:   row.ActiveSenders,
			Sequencer: toBenchStats(row.Sequencer),
			Token:     toBenchStats(row.Token),
			Hybrid:    toBenchStats(row.Hybrid),
			Events:    row.Events,
		})
	}
	out.BenchMeta = benchMeta("figure2", rc.Seed, events)
	return out
}

// BenchOverhead is the BENCH_overhead.json artifact: the single §7
// measurement plus the direction × sender-count sweep.
type BenchOverhead struct {
	BenchMeta
	Single BenchOverheadRow   `json:"single"`
	Sweep  []BenchOverheadRow `json:"sweep"`
}

// BenchOverheadRow is one switch measurement.
type BenchOverheadRow struct {
	Senders     int        `json:"senders"`
	From        string     `json:"from"`
	SwitchMS    float64    `json:"switch_ms"`
	HiccupMS    float64    `json:"hiccup_ms"`
	SteadyGapMS float64    `json:"steady_gap_ms"`
	Latency     BenchStats `json:"latency"`
	Events      uint64     `json:"events"`
}

func toBenchOverheadRow(r OverheadResult) BenchOverheadRow {
	return BenchOverheadRow{
		Senders:     r.ActiveSenders,
		From:        r.From.String(),
		SwitchMS:    Millis(r.SwitchDuration),
		HiccupMS:    Millis(r.Hiccup),
		SteadyGapMS: Millis(r.SteadyGap),
		Latency:     toBenchStats(r.Latency),
		Events:      r.Events,
	}
}

// NewBenchOverhead converts the overhead measurements into their
// artifact.
func NewBenchOverhead(seed int64, single *OverheadResult, sweep []OverheadResult) *BenchOverhead {
	out := &BenchOverhead{Single: toBenchOverheadRow(*single)}
	events := single.Events
	for _, r := range sweep {
		out.Sweep = append(out.Sweep, toBenchOverheadRow(r))
		events += r.Events
	}
	out.BenchMeta = benchMeta("overhead", seed, events)
	return out
}

// BenchHysteresis is the BENCH_hysteresis.json artifact.
type BenchHysteresis struct {
	BenchMeta
	Rows []BenchHysteresisRow `json:"rows"`
}

// BenchHysteresisRow is one oracle policy's outcome over the load ramp.
type BenchHysteresisRow struct {
	Policy            string  `json:"policy"`
	SwitchRequests    uint64  `json:"switch_requests"`
	SwitchesCompleted uint64  `json:"switches_completed"`
	MeanLatencyMS     float64 `json:"mean_latency_ms"`
	Events            uint64  `json:"events"`
}

// NewBenchHysteresis converts the oscillation study into its artifact.
func NewBenchHysteresis(seed int64, rows []HysteresisResult) *BenchHysteresis {
	out := &BenchHysteresis{}
	var events uint64
	for _, r := range rows {
		out.Rows = append(out.Rows, BenchHysteresisRow{
			Policy:            r.Policy,
			SwitchRequests:    r.SwitchRequests,
			SwitchesCompleted: r.SwitchesCompleted,
			MeanLatencyMS:     Millis(r.MeanLatency),
			Events:            r.Events,
		})
		events += r.Events
	}
	out.BenchMeta = benchMeta("hysteresis", seed, events)
	return out
}

// BenchChaos is the BENCH_chaos.json artifact.
type BenchChaos struct {
	BenchMeta
	Schedules int `json:"schedules"`
	Passed    int `json:"passed"`
	Failed    int `json:"failed"`
	// Kind counts: how many schedules contained each fault class.
	WithCrashes    int `json:"with_crashes"`
	WithPartitions int `json:"with_partitions"`
	WithBursts     int `json:"with_bursts"`
	// Adversarial-input fault classes (E15); zero on corruption-free
	// sweeps, and then omitted so earlier artifacts keep their shape.
	WithCorruption int `json:"with_corruption,omitempty"`
	WithTruncation int `json:"with_truncation,omitempty"`
	WithGarbage    int `json:"with_garbage,omitempty"`
	// Authenticated-session fault classes (E16); zero on forgery-free
	// sweeps, and then omitted so earlier artifacts keep their shape.
	WithForgery int `json:"with_forgery,omitempty"`
	WithReplay  int `json:"with_replay,omitempty"`
	// Overload fault class (E17); zero on crowd-free sweeps.
	WithFlashCrowd int `json:"with_flash_crowd,omitempty"`
	// Gray-failure fault classes (E20); zero on gray-free sweeps.
	WithSlowNodes  int `json:"with_slow_nodes,omitempty"`
	WithLinkFaults int `json:"with_link_faults,omitempty"`
	WithFlaps      int `json:"with_flaps,omitempty"`

	Delivered int `json:"delivered"`
	// Forged/Replayed total the adversary's wire-level injections.
	ForgedFrames   uint64          `json:"forged_frames,omitempty"`
	ReplayedFrames uint64          `json:"replayed_frames,omitempty"`
	Switching      switching.Stats `json:"switching"`

	WorstRecoveryMS float64 `json:"worst_recovery_ms"`
	RecoveryBoundMS float64 `json:"recovery_bound_ms"`

	// Members is the merged per-member registry over every schedule run
	// (sorted by proc; map keys sort inside encoding/json, so the
	// section is byte-deterministic).
	Members []obs.MemberMetrics `json:"members,omitempty"`

	Failures []BenchChaosFailure `json:"failures,omitempty"`

	// FlashCrowd holds the E17 latency/shed-rate rows when the sweep ran
	// the flash-crowd study.
	FlashCrowd []BenchFlashCrowdRow `json:"flash_crowd,omitempty"`

	// Gray holds the E20 stability rows when the sweep ran the
	// gray-failure study.
	Gray []BenchGrayRow `json:"gray,omitempty"`
}

// BenchGrayRow is one E20 (flap period, detector arm) cell. The
// switch_aborts and token_regens leaves are gated by cmd/benchdiff:
// recovery churn at a given cadence and arm must not rise against the
// committed baseline.
type BenchGrayRow struct {
	PeriodMS      int64   `json:"period_ms"`
	Detector      string  `json:"detector"`
	Schedules     int     `json:"schedules"`
	SwitchAborts  uint64  `json:"switch_aborts"`
	TokenRegens   uint64  `json:"token_regens"`
	VictimRegens  uint64  `json:"victim_regens,omitempty"`
	FlapPenalties uint64  `json:"flap_penalties,omitempty"`
	DegradedSkips uint64  `json:"degraded_skips,omitempty"`
	Reincludes    uint64  `json:"reincludes,omitempty"`
	Delivered     int     `json:"delivered"`
	Violations    int     `json:"violations"`
	DetectP50MS   float64 `json:"detect_p50_ms"`
	Events        uint64  `json:"events"`
}

// BenchFlashCrowdRow is one E17 spike multiplier.
type BenchFlashCrowdRow struct {
	Multiplier      int        `json:"multiplier"`
	Before          BenchStats `json:"before"`
	During          BenchStats `json:"during"`
	After           BenchStats `json:"after"`
	Shed            uint64     `json:"shed"`
	Backpressured   uint64     `json:"backpressured"`
	RetriedSends    uint64     `json:"retried_sends"`
	BasePaused      uint64     `json:"base_paused"`
	ShedRate        float64    `json:"shed_rate"`
	MaxIngressDepth int        `json:"max_ingress_depth"`
	MaxEgressDepth  int        `json:"max_egress_depth"`
	IngressCap      int        `json:"ingress_cap"`
	EgressCap       int        `json:"egress_cap"`
	Delivered       uint64     `json:"delivered"`
	Events          uint64     `json:"events"`
}

// BenchChaosFailure is one schedule that violated invariants, with
// enough detail to replay it (the seed regenerates the schedule) and
// the flight recorder's tail of events leading up to the failure.
type BenchChaosFailure struct {
	Seed       int64    `json:"seed"`
	Kinds      []string `json:"kinds"`
	Violations []string `json:"violations"`
	// Trace is the last events of the failing run (oldest first);
	// TraceDropped counts earlier events the bounded ring discarded.
	Trace        []obs.EventJSON `json:"trace,omitempty"`
	TraceDropped uint64          `json:"trace_dropped,omitempty"`
	// TelemetryTail is the failing run's last sampling windows, present
	// only when the sweep ran with telemetry on.
	TelemetryTail []telemetry.Window `json:"telemetry_tail,omitempty"`
}

// NewBenchChaos converts a chaos sweep into its artifact.
func NewBenchChaos(seed int64, res *ChaosSweepResult) *BenchChaos {
	out := &BenchChaos{
		Schedules:       res.Schedules,
		Passed:          res.Schedules - len(res.Failures),
		Failed:          len(res.Failures),
		WithCrashes:     res.KindCounts[chaos.KindCrash],
		WithPartitions:  res.KindCounts[chaos.KindPartition],
		WithBursts:      res.KindCounts[chaos.KindBurst],
		WithCorruption:  res.KindCounts[chaos.KindCorrupt],
		WithTruncation:  res.KindCounts[chaos.KindTruncate],
		WithGarbage:     res.KindCounts[chaos.KindGarbage],
		WithForgery:     res.KindCounts[chaos.KindForge],
		WithReplay:      res.KindCounts[chaos.KindReplay],
		WithFlashCrowd:  res.KindCounts[chaos.KindFlashCrowd],
		WithSlowNodes:   res.KindCounts[chaos.KindSlowNode],
		WithLinkFaults:  res.KindCounts[chaos.KindLinkFault],
		WithFlaps:       res.KindCounts[chaos.KindFlap],
		Delivered:       res.Delivered,
		ForgedFrames:    res.Forged,
		ReplayedFrames:  res.Replayed,
		Switching:       res.Stats,
		WorstRecoveryMS: Millis(res.WorstRecovery),
		RecoveryBoundMS: Millis(res.Bound),
	}
	if res.Metrics != nil {
		out.Members = res.Metrics.Snapshot()
	}
	for _, f := range res.Failures {
		bf := BenchChaosFailure{
			Seed:          f.Seed,
			Violations:    f.Violations,
			Trace:         obs.EventsToJSON(f.FlightRecord),
			TraceDropped:  f.FlightDropped,
			TelemetryTail: f.TelemetryTail,
		}
		for _, k := range f.Kinds {
			bf.Kinds = append(bf.Kinds, k.String())
		}
		out.Failures = append(out.Failures, bf)
	}
	for _, r := range res.FlashCrowd {
		out.FlashCrowd = append(out.FlashCrowd, BenchFlashCrowdRow{
			Multiplier:      r.Multiplier,
			Before:          toBenchStats(r.Before),
			During:          toBenchStats(r.During),
			After:           toBenchStats(r.After),
			Shed:            r.Shed,
			Backpressured:   r.Backpressured,
			RetriedSends:    r.RetriedSends,
			BasePaused:      r.BasePaused,
			ShedRate:        r.ShedRate,
			MaxIngressDepth: r.MaxIngressDepth,
			MaxEgressDepth:  r.MaxEgressDepth,
			IngressCap:      r.IngressCap,
			EgressCap:       r.EgressCap,
			Delivered:       r.Delivered,
			Events:          r.Events,
		})
	}
	for _, r := range res.Gray {
		out.Gray = append(out.Gray, BenchGrayRow{
			PeriodMS:      r.Period.Milliseconds(),
			Detector:      detectorName(r.Fixed),
			Schedules:     r.Schedules,
			SwitchAborts:  r.SwitchAborts,
			TokenRegens:   r.TokenRegens,
			VictimRegens:  r.VictimRegens,
			FlapPenalties: r.FlapPenalties,
			DegradedSkips: r.DegradedSkips,
			Reincludes:    r.Reincludes,
			Delivered:     r.Delivered,
			Violations:    r.Violations,
			DetectP50MS:   Millis(r.DetectLatency),
			Events:        r.Events,
		})
	}
	out.BenchMeta = benchMeta("chaos", seed, res.Events)
	return out
}

// BenchP2P is the BENCH_p2p.json artifact.
type BenchP2P struct {
	BenchMeta
	Rows []BenchP2PRow `json:"rows"`
}

// BenchP2PRow is one (link, protocol) cell of the E11 table.
type BenchP2PRow struct {
	Link        string  `json:"link"`
	Protocol    string  `json:"protocol"`
	Delivered   int     `json:"delivered"`
	PerSec      float64 `json:"delivered_per_sec"`
	Retransmits uint64  `json:"retransmits"`
	AcksSent    uint64  `json:"acks_sent"`
	Events      uint64  `json:"events"`
}

// NewBenchP2P converts the E11 sweep into its artifact.
func NewBenchP2P(seed int64, rows []P2PRow) *BenchP2P {
	out := &BenchP2P{}
	var events uint64
	for _, r := range rows {
		out.Rows = append(out.Rows, BenchP2PRow{
			Link:        r.Link,
			Protocol:    r.Result.Kind.String(),
			Delivered:   r.Result.Delivered,
			PerSec:      r.PerSec,
			Retransmits: r.Result.Retransmits,
			AcksSent:    r.Result.AcksSent,
			Events:      r.Result.Events,
		})
		events += r.Result.Events
	}
	out.BenchMeta = benchMeta("p2p", seed, events)
	return out
}

// BenchTelemetry is the E19 artifact: the chaos sweep's windowed
// time-series and switch-decision audit trail. The summary counters at
// the top are what cmd/benchdiff gates (windows and audited rounds must
// not fall — all deterministic per seed); the series and audit sections
// are the full data.
type BenchTelemetry struct {
	BenchMeta
	IntervalMS float64 `json:"interval_ms"`
	// Windows/Rounds summarize the series; RoundsComplete/RoundsAborted
	// split the audited rounds by terminal outcome (every round has
	// exactly one).
	Windows        int `json:"windows"`
	Rounds         int `json:"rounds"`
	RoundsComplete int `json:"rounds_complete"`
	RoundsAborted  int `json:"rounds_aborted"`

	Series []telemetry.Window `json:"series"`
	Audit  []telemetry.Round  `json:"audit"`
}

// NewBenchTelemetry converts a telemetry-enabled chaos sweep into its
// artifact. interval is the sampler's window width.
func NewBenchTelemetry(seed int64, interval time.Duration, res *ChaosSweepResult) *BenchTelemetry {
	out := &BenchTelemetry{
		IntervalMS: Millis(interval),
		Windows:    len(res.Windows),
		Rounds:     len(res.Rounds),
		Series:     res.Windows,
		Audit:      res.Rounds,
	}
	for _, r := range res.Rounds {
		if r.Outcome == telemetry.OutcomeComplete {
			out.RoundsComplete++
		} else {
			out.RoundsAborted++
		}
	}
	out.BenchMeta = benchMeta("telemetry", seed, res.Events)
	return out
}
