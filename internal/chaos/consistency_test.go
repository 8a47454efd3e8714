package chaos

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core/switching/swtest"
	"repro/internal/ids"
	"repro/internal/obs"
)

// registryTotal sums the registry's count of et over every member,
// network-wide events (obs.NoProc) included.
func registryTotal(res *Result, et obs.EventType) uint64 {
	var n uint64
	for _, p := range res.Metrics.Procs() {
		n += res.Metrics.Count(p, et)
	}
	return n
}

// checkStatsViews replays the run's events into a metrics registry and
// checks each live member's Switch.Stats() against it field by field,
// under the key "switching/" plus the field's json tag: an event
// recorded without being counted, or a count without its event, shows
// up as a mismatch.
func checkStatsViews(t *testing.T, seed int64, res *Result, c *swtest.SwitchedCluster, events []obs.Event) {
	t.Helper()
	m := obs.NewMetrics()
	for _, e := range events {
		m.Record(e)
	}
	counters := make(map[ids.ProcID]map[string]uint64)
	for _, mm := range m.Snapshot() {
		counters[ids.ProcID(mm.Proc)] = mm.Counters
	}
	for _, p := range res.Live {
		st := reflect.ValueOf(c.Members[p].Switch.Stats())
		for i := 0; i < st.NumField(); i++ {
			tag, _, _ := strings.Cut(st.Type().Field(i).Tag.Get("json"), ",")
			if got, want := st.Field(i).Uint(), counters[p]["switching/"+tag]; got != want {
				t.Errorf("seed %d: member %v: Stats.%s = %d, trace counts %d",
					seed, p, st.Type().Field(i).Name, got, want)
			}
		}
	}
}

// TestStatsTraceConsistency replays seeded chaos schedules — base tier
// and every fault tier composed, since all of them run the one stack —
// with a collector attached and checks every member's counters against
// its trace (checkStatsViews), plus the causal ordering invariant:
// at every prefix of a member's event stream, token regenerations never
// outnumber the wedge timeouts and suspicions that justify them — every
// replacement token has a recorded cause.
//
// The seed range is chosen so the sweep provably exercises wedge
// timeouts, regenerations, and aborted switch rounds; if generator
// tuning ever makes those unreachable the test fails loudly rather
// than passing vacuously.
func TestStatsTraceConsistency(t *testing.T) {
	var sawWedge, sawRegen, sawAbort bool
	allTiers := GenConfig{Corruption: true, Forgery: true, FlashCrowd: true, GrayFailure: true}
	for seed := int64(1); seed <= 25; seed++ {
		for _, gc := range []GenConfig{{}, allTiers} {
			sched, err := Generate(seed, gc)
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
			causes := map[ids.ProcID]int{}
			for _, e := range col.Events() {
				switch e.Type {
				case obs.EvWedgeTimeout, obs.EvSuspect:
					causes[e.Proc]++
				case obs.EvTokenRegen:
					if causes[e.Proc]--; causes[e.Proc] < 0 {
						t.Errorf("seed %d: member %v regenerated a token at t=%v with no preceding wedge timeout or suspicion",
							seed, e.Proc, e.At)
					}
				}
			}
			checkStatsViews(t, seed, res, c, col.Events())
			sawWedge = sawWedge || res.Stats.WedgeTimeouts > 0
			sawRegen = sawRegen || res.Stats.TokensRegenerated > 0
			sawAbort = sawAbort || res.Stats.SwitchesAborted > 0
		}
	}
	if !sawWedge || !sawRegen || !sawAbort {
		t.Errorf("sweep never exercised the recovery path (wedge=%v regen=%v abort=%v) — widen the seed range",
			sawWedge, sawRegen, sawAbort)
	}
}

// TestOverloadTraceConsistency extends the obs-consistency invariant to
// what the counters alone cannot say about the overload layer: across
// seeded flash-crowd schedules the watermark edges must pair up (never
// more resumes than pauses at any prefix). The sweep must be
// non-vacuous on sheds, pauses and retries.
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

		paused := map[ids.ProcID]int{}
		for _, e := range col.Events() {
			switch e.Type {
			case obs.EvBackpressureOn:
				paused[e.Proc]++
			case obs.EvBackpressureOff:
				if paused[e.Proc]--; paused[e.Proc] < 0 {
					t.Errorf("seed %d: member %v resumed at t=%v with no preceding pause",
						seed, e.Proc, e.At)
				}
			}
		}
		checkStatsViews(t, seed, res, c, col.Events())
		sawShed = sawShed || res.Stats.Shed > 0
		sawPause = sawPause || res.Stats.Backpressured > 0
		sawRetry = sawRetry || res.Stats.RetriedSends > 0
	}
	if !sawShed || !sawPause || !sawRetry {
		t.Errorf("sweep never exercised the overload path (shed=%v pause=%v retry=%v) — widen the seed range",
			sawShed, sawPause, sawRetry)
	}
}

// TestGrayTraceConsistency extends the obs-consistency invariant to the
// adaptive detector's causal order: across seeded gray schedules, at
// every point of a member's stream a graded suspicion never clears
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

		raised := map[ids.ProcID]int{}
		penalized := map[ids.ProcID]int{}
		for _, e := range col.Events() {
			switch e.Type {
			case obs.EvSuspicionRaise:
				raised[e.Proc]++
			case obs.EvSuspicionClear:
				if raised[e.Proc]--; raised[e.Proc] < 0 {
					t.Errorf("seed %d: member %v cleared a graded suspicion at t=%v with no preceding raise",
						seed, e.Proc, e.At)
				}
			case obs.EvFlapPenalty:
				penalized[e.Proc]++
			case obs.EvReinclude:
				if penalized[e.Proc]--; penalized[e.Proc] < 0 {
					t.Errorf("seed %d: member %v re-included a peer at t=%v with no preceding flap penalty",
						seed, e.Proc, e.At)
				}
			}
		}
		checkStatsViews(t, seed, res, c, col.Events())
		sawRaise = sawRaise || res.Stats.SuspicionsRaised > 0
		sawPenalty = sawPenalty || res.Stats.FlapPenalties > 0
		sawSkip = sawSkip || res.Stats.DegradedSkips > 0
	}
	if !sawRaise || !sawPenalty || !sawSkip {
		t.Errorf("sweep never exercised the adaptive path (raise=%v penalty=%v skip=%v) — widen the seed range",
			sawRaise, sawPenalty, sawSkip)
	}
}
