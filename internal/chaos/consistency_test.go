package chaos

import (
	"testing"

	"repro/internal/core/switching"
	"repro/internal/ids"
	"repro/internal/obs"
)

// memberCounts tallies the switching-layer events one member emitted.
type memberCounts struct {
	passes, completed, buffered, stale uint64
	wedges, regens, aborts, forced     uint64
	suspects                           uint64
}

// TestStatsTraceConsistency replays seeded chaos schedules with a
// collector attached and cross-checks three views of the same run:
//
//  1. each live member's own switching.Stats() against the event
//     counts that member emitted into the trace,
//  2. Result.Stats (derived from the metrics registry) against the
//     manual sum of the live members' Stats(), and
//  3. the causal ordering invariant: at every prefix of a member's
//     event stream, token regenerations never outnumber the wedge
//     timeouts and suspicions that justify them — every replacement
//     token has a recorded cause.
//
// The seed range is chosen so the sweep provably exercises wedge
// timeouts, regenerations, and aborted switch rounds; if generator
// tuning ever makes those unreachable the test fails loudly rather
// than passing vacuously.
func TestStatsTraceConsistency(t *testing.T) {
	var sawWedge, sawRegen, sawAbort bool
	for seed := int64(1); seed <= 25; seed++ {
		sched, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		col := obs.NewCollector()
		res, c, err := run(sched, RunConfig{Recorder: col}, nil)
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if res.Failed() {
			t.Fatalf("seed %d: invariants violated: %v", seed, res.Violations)
		}

		// Tally per-member switching events, checking the causal prefix
		// invariant as the stream replays in emission order.
		counts := make(map[ids.ProcID]*memberCounts)
		at := func(p ids.ProcID) *memberCounts {
			mc := counts[p]
			if mc == nil {
				mc = &memberCounts{}
				counts[p] = mc
			}
			return mc
		}
		for _, e := range col.Events() {
			mc := at(e.Proc)
			switch e.Type {
			case obs.EvTokenPass:
				mc.passes++
			case obs.EvEpochAdvance:
				mc.completed++
			case obs.EvBuffered:
				mc.buffered++
			case obs.EvStaleDrop:
				mc.stale++
			case obs.EvWedgeTimeout:
				mc.wedges++
			case obs.EvSuspect:
				mc.suspects++
			case obs.EvTokenRegen:
				mc.regens++
				if mc.regens > mc.wedges+mc.suspects {
					t.Errorf("seed %d: member %v regenerated a token at t=%v with no preceding wedge timeout or suspicion",
						seed, e.Proc, e.At)
				}
			case obs.EvSwitchAbort:
				mc.aborts++
			case obs.EvEpochForced:
				mc.forced++
			}
		}

		// View 1: every live member's own counters equal its trace.
		var manual switching.Stats
		for _, p := range res.Live {
			st := c.Members[p].Switch.Stats()
			manual.Add(st)
			mc := at(p)
			got := switching.Stats{
				SwitchesCompleted: mc.completed,
				Buffered:          mc.buffered,
				StaleDropped:      mc.stale,
				TokenPasses:       mc.passes,
				WedgeTimeouts:     mc.wedges,
				TokensRegenerated: mc.regens,
				SwitchesAborted:   mc.aborts,
				ForcedAdvances:    mc.forced,
			}
			if got != st {
				t.Errorf("seed %d: member %v: trace-derived stats %+v != Switch.Stats() %+v",
					seed, p, got, st)
			}
		}

		// View 2: the metrics-derived aggregate equals the manual sum.
		if res.Stats != manual {
			t.Errorf("seed %d: Result.Stats %+v != summed member stats %+v",
				seed, res.Stats, manual)
		}

		sawWedge = sawWedge || res.Stats.WedgeTimeouts > 0
		sawRegen = sawRegen || res.Stats.TokensRegenerated > 0
		sawAbort = sawAbort || res.Stats.SwitchesAborted > 0
	}
	if !sawWedge || !sawRegen || !sawAbort {
		t.Errorf("sweep never exercised the recovery path (wedge=%v regen=%v abort=%v) — widen the seed range",
			sawWedge, sawRegen, sawAbort)
	}
}

// TestOverloadTraceConsistency extends the obs-consistency invariant to
// the overload counters: across seeded flash-crowd schedules, each live
// member's EvShed / EvBackpressureOn / EvRetrySend trace events must
// equal that member's own Stats().Shed / Backpressured / RetriedSends,
// the per-peer ingress-shed attribution must equal ShedFrom, the
// metrics-derived Result.Stats must equal the manual sum, and the
// watermark edges must pair up (never more resumes than pauses at any
// prefix). The sweep must be non-vacuous on all three counters.
func TestOverloadTraceConsistency(t *testing.T) {
	var sawShed, sawPause, sawRetry bool
	for seed := int64(1); seed <= 30; seed++ {
		sched, err := Generate(seed, GenConfig{FlashCrowd: true})
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		col := obs.NewCollector()
		res, c, err := run(sched, RunConfig{Recorder: col}, nil)
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if res.Failed() {
			t.Fatalf("seed %d: invariants violated: %v", seed, res.Violations)
		}

		shedBy := map[ids.ProcID]uint64{}
		shedByPeer := map[ids.ProcID]map[ids.ProcID]uint64{}
		pauses := map[ids.ProcID]uint64{}
		resumes := map[ids.ProcID]uint64{}
		retries := map[ids.ProcID]uint64{}
		for _, e := range col.Events() {
			switch e.Type {
			case obs.EvShed:
				shedBy[e.Proc]++
				if e.Args[0] == obs.ShedIngress {
					if shedByPeer[e.Proc] == nil {
						shedByPeer[e.Proc] = map[ids.ProcID]uint64{}
					}
					shedByPeer[e.Proc][e.Peer]++
				}
			case obs.EvBackpressureOn:
				pauses[e.Proc]++
			case obs.EvBackpressureOff:
				resumes[e.Proc]++
				if resumes[e.Proc] > pauses[e.Proc] {
					t.Errorf("seed %d: member %v resumed at t=%v with no preceding pause",
						seed, e.Proc, e.At)
				}
			case obs.EvRetrySend:
				retries[e.Proc]++
			}
		}
		var manual switching.Stats
		for _, p := range res.Live {
			st := c.Members[p].Switch.Stats()
			manual.Add(st)
			if shedBy[p] != st.Shed {
				t.Errorf("seed %d: member %v: trace shows %d sheds, Switch.Stats() %d",
					seed, p, shedBy[p], st.Shed)
			}
			if pauses[p] != st.Backpressured {
				t.Errorf("seed %d: member %v: trace shows %d pauses, Switch.Stats() %d",
					seed, p, pauses[p], st.Backpressured)
			}
			if retries[p] != st.RetriedSends {
				t.Errorf("seed %d: member %v: trace shows %d retries, Switch.Stats() %d",
					seed, p, retries[p], st.RetriedSends)
			}
			for peer, n := range shedByPeer[p] {
				if got := c.Members[p].Switch.ShedFrom(peer); got != n {
					t.Errorf("seed %d: member %v: trace attributes %d ingress sheds to peer %v, ShedFrom %d",
						seed, p, n, peer, got)
				}
			}
			sawShed = sawShed || st.Shed > 0
			sawPause = sawPause || st.Backpressured > 0
			sawRetry = sawRetry || st.RetriedSends > 0
		}
		if res.Stats != manual {
			t.Errorf("seed %d: Result.Stats %+v != summed member stats %+v",
				seed, res.Stats, manual)
		}
	}
	if !sawShed || !sawPause || !sawRetry {
		t.Errorf("sweep never exercised the overload path (shed=%v pause=%v retry=%v) — widen the seed range",
			sawShed, sawPause, sawRetry)
	}
}

// TestGrayTraceConsistency extends the obs-consistency invariant to the
// adaptive-detector counters: across seeded gray schedules, each live
// member's EvSuspicionRaise / EvSuspicionClear / EvFlapPenalty /
// EvDegradedSkip / EvReinclude trace events must equal that member's
// own Stats() gray counters, the metrics-derived Result.Stats must
// equal the manual sum, and two causal prefix invariants must hold at
// every point of a member's stream: a graded suspicion never clears
// without a preceding raise, and a peer is never re-included without a
// preceding flap penalty. The sweep must be non-vacuous on raises,
// penalties and skips.
func TestGrayTraceConsistency(t *testing.T) {
	var sawRaise, sawPenalty, sawSkip bool
	for seed := int64(1); seed <= 40; seed++ {
		sched, err := Generate(seed, GenConfig{GrayFailure: true})
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		col := obs.NewCollector()
		res, c, err := run(sched, RunConfig{Recorder: col}, nil)
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if res.Failed() {
			t.Fatalf("seed %d: invariants violated: %v", seed, res.Violations)
		}

		raises := map[ids.ProcID]uint64{}
		clears := map[ids.ProcID]uint64{}
		penalties := map[ids.ProcID]uint64{}
		skips := map[ids.ProcID]uint64{}
		reincludes := map[ids.ProcID]uint64{}
		for _, e := range col.Events() {
			switch e.Type {
			case obs.EvSuspicionRaise:
				raises[e.Proc]++
			case obs.EvSuspicionClear:
				clears[e.Proc]++
				if clears[e.Proc] > raises[e.Proc] {
					t.Errorf("seed %d: member %v cleared a graded suspicion at t=%v with no preceding raise",
						seed, e.Proc, e.At)
				}
			case obs.EvFlapPenalty:
				penalties[e.Proc]++
			case obs.EvDegradedSkip:
				skips[e.Proc]++
			case obs.EvReinclude:
				reincludes[e.Proc]++
				if reincludes[e.Proc] > penalties[e.Proc] {
					t.Errorf("seed %d: member %v re-included a peer at t=%v with no preceding flap penalty",
						seed, e.Proc, e.At)
				}
			}
		}
		var manual switching.Stats
		for _, p := range res.Live {
			st := c.Members[p].Switch.Stats()
			manual.Add(st)
			if raises[p] != st.SuspicionsRaised || clears[p] != st.SuspicionsCleared ||
				penalties[p] != st.FlapPenalties || skips[p] != st.DegradedSkips ||
				reincludes[p] != st.Reincludes {
				t.Errorf("seed %d: member %v: trace shows raise=%d clear=%d penalty=%d skip=%d reinclude=%d, Switch.Stats() %+v",
					seed, p, raises[p], clears[p], penalties[p], skips[p], reincludes[p], st)
			}
			sawRaise = sawRaise || st.SuspicionsRaised > 0
			sawPenalty = sawPenalty || st.FlapPenalties > 0
			sawSkip = sawSkip || st.DegradedSkips > 0
		}
		if res.Stats != manual {
			t.Errorf("seed %d: Result.Stats %+v != summed member stats %+v",
				seed, res.Stats, manual)
		}
	}
	if !sawRaise || !sawPenalty || !sawSkip {
		t.Errorf("sweep never exercised the adaptive path (raise=%v penalty=%v skip=%v) — widen the seed range",
			sawRaise, sawPenalty, sawSkip)
	}
}
