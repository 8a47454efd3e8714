package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/harness/engine"
	"repro/internal/ids"
	"repro/internal/obs"
)

// This file is E20: the gray-failure stability study. A flapping link
// — blocked for one half-cycle, open for the next — is driven at a
// swept cadence against two detector arms: the legacy fixed-timeout
// failure detector, and the adaptive layer (graded phi-accrual
// suspicion plus BGP-style flap damping) every chaos sweep runs. The
// study reports switch-round aborts and token
// regenerations per arm and cadence, answering the ROADMAP's question:
// does damping actually buy stability under membership flapping — and
// the companion crash-detection-latency measurement shows the price is
// not paid in slower detection of genuine crashes.

// grayPeriods are the flap half-cycles the study sweeps. Every blocked
// half-cycle outlasts the detector timeout (25ms at the runner's 5ms
// heartbeat), so each cycle produces a full suspect→restore round trip;
// shorter periods flap faster, and the damping half-life draws the
// line — fast cadences accumulate penalty faster than it decays and get
// suppressed, slow ones decay between flaps and stay undamped
// (tolerated).
var grayPeriods = []time.Duration{30 * time.Millisecond, 45 * time.Millisecond, 90 * time.Millisecond}

const (
	// graySchedules is how many seeded schedules each (period, arm) cell
	// runs. The same schedule seeds are replayed in every cell, so rows
	// differ only by cadence and detector.
	graySchedules = 12
	// grayDetectSeeds is how many crash-detection-latency runs each arm
	// measures.
	grayDetectSeeds = 12
)

// GrayStudyRow is one (flap period, detector arm) cell.
type GrayStudyRow struct {
	// Period is the flap half-cycle; Fixed selects the legacy detector
	// arm (false = adaptive suspicion + flap damping).
	Period time.Duration
	Fixed  bool
	// Schedules is how many seeded runs the cell aggregates.
	Schedules int
	// SwitchAborts and TokenRegens total the recovery churn the
	// *healthy* members (everyone but the flapping victim) suffered
	// over the cell's runs — the stability measure the study compares
	// across arms at each cadence. VictimRegens counts the flapping
	// member's own regenerations separately: once damped it is routed
	// around without being told, so it blindly wedges and regenerates
	// on a doubling backoff; that bounded, self-inflicted churn is not
	// disruption felt by the group.
	SwitchAborts uint64
	TokenRegens  uint64
	VictimRegens uint64
	// FlapPenalties/DegradedSkips/Reincludes are the damping layer's
	// own counters (zero in the fixed arm).
	FlapPenalties uint64
	DegradedSkips uint64
	Reincludes    uint64
	// Delivered totals application deliveries; Violations counts runs
	// that breached any always-on invariant (zero on a passing study).
	Delivered  int
	Violations int
	// DetectLatency is the arm's median crash-detection latency
	// (replicated across the arm's rows; it depends on the detector,
	// not the flap cadence).
	DetectLatency time.Duration
	Events        uint64
}

// grayStudySchedule expands a seed into the cell's schedule: the
// base-tier generator's traffic and switch requests (none of its faults),
// plus a flapping member — every link out of member 2 blocks and
// reopens in lockstep at the requested cadence from 0.1×horizon to
// 0.7×horizon. This is the scenario flap damping exists for: during
// each blocked phase the member looks dead to the whole group (and
// black-holes the token its clean inbound links still deliver to it);
// on each reopen a fixed detector re-admits it into the ring just in
// time for the next blocked phase to lose the token again. Damping
// instead parks the member in degraded mode after a few cycles and
// re-includes it once the link holds still. Every cell sees the same
// seeded workload; only the cadence and the detector arm vary.
// grayVictim is the flapping member of every study schedule — a
// non-sequencer, so the disrupted member never owns a sub-protocol's
// total order.
const grayVictim = ids.ProcID(2)

func grayStudySchedule(seed int64, period time.Duration) (chaos.Schedule, error) {
	sched, err := chaos.Generate(seed, chaos.GenConfig{})
	if err != nil {
		return chaos.Schedule{}, err
	}
	const victim = grayVictim
	// Stretch the run well past the generated 400ms horizon: the flap
	// needs enough cycles for damping to engage *and* then prove it
	// holds (the generated workload simply finishes early). The window
	// closes 300ms before the horizon so penalties decay past reuse and
	// the victim is re-included before the post-heal probes.
	sched.Horizon = 1600 * time.Millisecond
	sched.Events = nil
	for p := 0; p < sched.N; p++ {
		if ids.ProcID(p) == victim {
			continue
		}
		sched.Events = append(sched.Events, chaos.Event{
			At:     60 * time.Millisecond,
			Kind:   chaos.KindFlap,
			From:   victim,
			Target: ids.ProcID(p),
			Until:  sched.Horizon - 300*time.Millisecond,
			Period: period,
		})
	}
	return sched, nil
}

// RunGrayStudy sweeps the (period, arm) grid on parallel workers (<= 0
// uses GOMAXPROCS). Each cell replays the same schedules seeded from
// seed, so the aggregated rows are deterministic and identical for any
// worker count.
func RunGrayStudy(seed int64, parallel int) ([]GrayStudyRow, error) {
	pool := engine.New(parallel)

	// Detection latency per arm first: one seeded family, both
	// detectors measured on the same seeds.
	type detect struct{ fixed, adaptive time.Duration }
	lat, err := engine.Map(pool, grayDetectSeeds, seed,
		func(j engine.Job) (detect, error) {
			f, err := chaos.MeasureDetection(j.Seed, 4, 5*time.Millisecond, true)
			if err != nil {
				return detect{}, fmt.Errorf("harness: detect (fixed) seed %d: %w", j.Seed, err)
			}
			a, err := chaos.MeasureDetection(j.Seed, 4, 5*time.Millisecond, false)
			if err != nil {
				return detect{}, fmt.Errorf("harness: detect (adaptive) seed %d: %w", j.Seed, err)
			}
			return detect{fixed: f, adaptive: a}, nil
		})
	if err != nil {
		return nil, err
	}
	var fixedLat, adaptiveLat []time.Duration
	for _, d := range lat {
		fixedLat = append(fixedLat, d.fixed)
		adaptiveLat = append(adaptiveLat, d.adaptive)
	}
	detectP50 := map[bool]time.Duration{
		true:  Summarize(fixedLat).P50,
		false: Summarize(adaptiveLat).P50,
	}

	// The grid: one pool job per (period, arm) cell; each cell replays
	// its schedules sequentially inside the job (a cell is a single
	// aggregation, and the grid is small).
	type cell struct {
		period time.Duration
		fixed  bool
	}
	var cells []cell
	for _, p := range grayPeriods {
		cells = append(cells, cell{p, true}, cell{p, false})
	}
	return engine.Map(pool, len(cells), seed,
		func(j engine.Job) (GrayStudyRow, error) {
			cl := cells[j.Index]
			row := GrayStudyRow{
				Period:        cl.period,
				Fixed:         cl.fixed,
				Schedules:     graySchedules,
				DetectLatency: detectP50[cl.fixed],
			}
			for i := 0; i < graySchedules; i++ {
				s := engine.DeriveSeed(seed, i)
				sched, err := grayStudySchedule(s, cl.period)
				if err != nil {
					return GrayStudyRow{}, fmt.Errorf("harness: gray study seed %d: %w", s, err)
				}
				res, err := chaos.Run(sched, chaos.RunConfig{FixedDetector: cl.fixed})
				if err != nil {
					return GrayStudyRow{}, fmt.Errorf("harness: gray study seed %d: %w", s, err)
				}
				if res.Failed() {
					row.Violations++
				}
				for _, p := range res.Live {
					if p == grayVictim {
						row.VictimRegens += res.Metrics.Count(p, obs.EvTokenRegen)
						continue
					}
					row.SwitchAborts += res.Metrics.Count(p, obs.EvSwitchAbort)
					row.TokenRegens += res.Metrics.Count(p, obs.EvTokenRegen)
				}
				row.FlapPenalties += res.Stats.FlapPenalties
				row.DegradedSkips += res.Stats.DegradedSkips
				row.Reincludes += res.Stats.Reincludes
				row.Delivered += res.Delivered
				row.Events += res.Events
			}
			return row, nil
		})
}

// detectorName renders an arm.
func detectorName(fixed bool) string {
	if fixed {
		return "fixed"
	}
	return "adaptive"
}

// RenderGrayStudy prints the E20 table.
func RenderGrayStudy(rows []GrayStudyRow) string {
	var b strings.Builder
	b.WriteString("Gray-failure stability (E20): flap cadence vs. detector arms\n\n")
	b.WriteString("period   detector   aborts   regens   victim   penalties   skips   reincl   delivered   viol   detect p50\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%5dms   %-8s   %6d   %6d   %6d   %9d   %5d   %6d   %9d   %4d   %10s\n",
			r.Period.Milliseconds(), detectorName(r.Fixed),
			r.SwitchAborts, r.TokenRegens, r.VictimRegens,
			r.FlapPenalties, r.DegradedSkips, r.Reincludes,
			r.Delivered, r.Violations,
			FormatMillis(r.DetectLatency))
	}
	b.WriteString("\nthe same seeded schedules run in every cell: every link out of one\n")
	b.WriteString("member flaps at the row's half-cycle, legacy detector vs. adaptive\n")
	b.WriteString("suspicion + flap damping. aborts/regens count the healthy members'\n")
	b.WriteString("churn; victim is the flapping member's own (backoff-bounded) regens\n")
	b.WriteString("while routed around. detect p50 is each arm's median latency to\n")
	b.WriteString("suspect a genuinely crashed member on a clean network.\n")
	return b.String()
}
