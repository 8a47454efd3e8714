package chaos

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

// withoutGray strips gray-failure events from a schedule's event list,
// leaving the legacy + corruption + forgery + flash-crowd prefix.
func withoutGray(events []Event) []Event {
	var out []Event
	for _, e := range events {
		switch e.Kind {
		case KindSlowNode, KindLinkFault, KindFlap:
		default:
			out = append(out, e)
		}
	}
	return out
}

// TestGenerateGray pins the gray-failure generator's contracts:
// determinism, well-formed events, and — critically — that enabling
// gray failures only appends to the schedules every earlier config
// would generate. The gray draws happen after every legacy, corruption,
// forgery and flash-crowd draw, so Generate(seed, {…, GrayFailure})
// minus the gray events must equal Generate(seed, {…}) exactly.
func TestGenerateGray(t *testing.T) {
	graySeen := map[Kind]int{}
	base := GenConfig{Corruption: true, Forgery: true, FlashCrowd: true}
	withGray := base
	withGray.GrayFailure = true
	for seed := int64(0); seed < 50; seed++ {
		full, err := Generate(seed, base)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Generate(seed, withGray)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(seed, withGray)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedules differ:\n%+v\nvs\n%+v", seed, a, b)
		}
		if !reflect.DeepEqual(withoutGray(a.Events), full.Events) {
			t.Errorf("seed %d: gray config disturbed the earlier-tier events", seed)
		}
		if !reflect.DeepEqual(a.Switches, full.Switches) || !reflect.DeepEqual(a.Traffic, full.Traffic) {
			t.Errorf("seed %d: gray config disturbed the switches/traffic", seed)
		}
		// Gray failures without the other tiers still append after the
		// legacy draws only.
		legacy, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		grayOnly, err := Generate(seed, GenConfig{GrayFailure: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(withoutGray(grayOnly.Events), legacy.Events) {
			t.Errorf("seed %d: gray-only config disturbed the legacy fault events", seed)
		}
		for _, ev := range a.Events {
			switch ev.Kind {
			case KindSlowNode:
				graySeen[ev.Kind]++
				if ev.At >= ev.Until || ev.Until > a.Horizon {
					t.Errorf("seed %d: bad slow-node window: %+v", seed, ev)
				}
				if ev.Size < 2 || ev.Size > 6 {
					t.Errorf("seed %d: slow-node factor %d outside [2,6]", seed, ev.Size)
				}
				if ev.Target < 2 {
					t.Errorf("seed %d: slow node targets sequencer %v", seed, ev.Target)
				}
			case KindLinkFault:
				graySeen[ev.Kind]++
				if ev.At >= ev.Until || ev.Until > a.Horizon {
					t.Errorf("seed %d: bad link-fault window: %+v", seed, ev)
				}
				if ev.Drop <= 0 || ev.Drop >= 0.5 || ev.Dup < 0 || ev.Dup >= 0.2 {
					t.Errorf("seed %d: link-fault probabilities out of range: %+v", seed, ev)
				}
				if ev.From < 2 || ev.From == ev.Target {
					t.Errorf("seed %d: bad link-fault endpoints %v→%v", seed, ev.From, ev.Target)
				}
			case KindFlap:
				graySeen[ev.Kind]++
				if ev.At >= ev.Until || ev.Until > a.Horizon {
					t.Errorf("seed %d: bad flap window: %+v", seed, ev)
				}
				if ev.Period < 30*time.Millisecond || ev.Period > 60*time.Millisecond {
					t.Errorf("seed %d: flap period %v outside [30ms,60ms]", seed, ev.Period)
				}
				if ev.From < 2 || ev.From == ev.Target {
					t.Errorf("seed %d: bad flap endpoints %v→%v", seed, ev.From, ev.Target)
				}
			}
		}
		if got := hasKind(a, KindSlowNode, KindLinkFault, KindFlap); got != (len(a.Events) > len(full.Events)) {
			t.Errorf("seed %d: gray kinds present=%v disagrees with event list", seed, got)
		}
		if hasKind(full, KindSlowNode, KindLinkFault, KindFlap) || hasKind(legacy, KindSlowNode, KindLinkFault, KindFlap) {
			t.Errorf("seed %d: gray-free schedule claims a gray failure", seed)
		}
	}
	for _, k := range []Kind{KindSlowNode, KindLinkFault, KindFlap} {
		if graySeen[k] == 0 {
			t.Errorf("50 gray-enabled seeds never produced a %v event", k)
		}
	}
}

// TestSweepGray is E20's acceptance gate: ≥200 seeded schedules mixing
// every fault class with gray failures — slow nodes, asymmetric lossy
// links, and flapping links. Every schedule must pass every invariant —
// including the two always-on gray guarantees, bounded disruption (no
// 100ms window of virtual time exceeds the recovery-action budget) and
// eventual re-inclusion (no live member still routes around another
// live member at end of run) — and the adaptive layer must demonstrably
// engage across the sweep: suspicion raises, flap penalties, degraded
// skips and re-inclusions all non-zero.
func TestSweepGray(t *testing.T) {
	const schedules = 200
	kinds := map[Kind]int{}
	var stats struct{ raised, penalties, skips, reincludes uint64 }
	var slowSets, linkSets, flapSets uint64
	for seed := int64(1); seed <= schedules; seed++ {
		sched, err := Generate(seed, GenConfig{Corruption: true, Forgery: true, FlashCrowd: true, GrayFailure: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(sched, RunConfig{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, k := range res.Kinds {
			kinds[k]++
		}
		stats.raised += res.Stats.SuspicionsRaised
		stats.penalties += res.Stats.FlapPenalties
		stats.skips += res.Stats.DegradedSkips
		stats.reincludes += res.Stats.Reincludes
		slowSets += registryTotal(res, obs.EvSlowNodeSet)
		linkSets += registryTotal(res, obs.EvLinkFaultSet)
		flapSets += registryTotal(res, obs.EvFlapSet)
		for _, v := range res.Violations {
			t.Errorf("seed %d (%v): %s", seed, res.Kinds, v)
		}
		if t.Failed() && seed >= 10 {
			t.Fatalf("aborting sweep after seed %d", seed)
		}
	}
	for _, k := range []Kind{KindSlowNode, KindLinkFault, KindFlap} {
		if kinds[k] < schedules/10 {
			t.Errorf("%v appeared in only %d/%d schedules", k, kinds[k], schedules)
		}
	}
	if slowSets == 0 || linkSets == 0 || flapSets == 0 {
		t.Errorf("sweep never armed a gray fault: slow=%d link=%d flap=%d", slowSets, linkSets, flapSets)
	}
	if stats.raised == 0 {
		t.Error("sweep never raised a graded suspicion — the adaptive detector was not exercised")
	}
	if stats.penalties == 0 {
		t.Error("sweep never charged a flap penalty — the damping layer was not exercised")
	}
	if stats.skips == 0 {
		t.Error("sweep never skipped a damped member — degraded-mode ring repair was not exercised")
	}
	if stats.reincludes == 0 {
		t.Error("sweep never re-included a damped member — the decay path was not exercised")
	}
	t.Logf("fault mix over %d schedules: %v; raised %d, penalties %d, skips %d, reincludes %d",
		schedules, kinds, stats.raised, stats.penalties, stats.skips, stats.reincludes)
}

// TestRunDeterministicGray replays gray schedules twice and requires
// identical outcomes, pinning that the gray network faults (per-link
// draws, CPU stretching, flap toggles) and the adaptive detector
// (integer-scaled suspicion, penalty decay) draw only from the seeded
// simulation stream.
func TestRunDeterministicGray(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		sched, err := Generate(seed, GenConfig{Corruption: true, Forgery: true, FlashCrowd: true, GrayFailure: true})
		if err != nil {
			t.Fatal(err)
		}
		a, err := Run(sched, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(sched, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Delivered != b.Delivered || a.Events != b.Events ||
			!reflect.DeepEqual(a.Stats, b.Stats) ||
			!reflect.DeepEqual(a.Violations, b.Violations) {
			t.Errorf("seed %d (%v): replay diverged:\n  %+v\n  %+v", seed, a.Kinds, a, b)
		}
	}
}

// TestGrayFixedDetectorBaseline pins the E20 baseline arm: the same
// gray schedules replayed with RunConfig.FixedDetector keep the legacy
// detector (no adaptive counters move) and still satisfy the safety
// invariants — the stability study compares the two arms' disruption,
// not their correctness.
func TestGrayFixedDetectorBaseline(t *testing.T) {
	var aborted, adaptiveEvents uint64
	for seed := int64(1); seed <= 30; seed++ {
		sched, err := Generate(seed, GenConfig{GrayFailure: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(sched, RunConfig{FixedDetector: true})
		if err != nil {
			t.Fatal(err)
		}
		aborted += res.Stats.SwitchesAborted
		adaptiveEvents += res.Stats.SuspicionsRaised + res.Stats.FlapPenalties +
			res.Stats.DegradedSkips + res.Stats.Reincludes
		for _, v := range res.Violations {
			t.Errorf("seed %d (%v): %s", seed, res.Kinds, v)
		}
	}
	if adaptiveEvents != 0 {
		t.Errorf("fixed-detector runs moved adaptive counters %d times", adaptiveEvents)
	}
	_ = aborted
}
