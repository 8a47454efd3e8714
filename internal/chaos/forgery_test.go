package chaos

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// withoutAuthFaults strips forge/replay events from a schedule's event
// list, leaving the legacy + corruption prefix.
func withoutAuthFaults(events []Event) []Event {
	var out []Event
	for _, e := range events {
		switch e.Kind {
		case KindForge, KindReplay:
		default:
			out = append(out, e)
		}
	}
	return out
}

// TestGenerateForgery pins the forgery generator's contracts:
// determinism, well-formed events, and — critically — that enabling
// forgery only appends to the schedules the corruption and legacy
// configs would generate. The forgery draws happen after every other
// draw, so Generate(seed, {Corruption, Forgery}) minus the forge/replay
// events must equal Generate(seed, {Corruption}) exactly, which in turn
// carries the legacy schedule as its own prefix (TestGenerateCorruption).
func TestGenerateForgery(t *testing.T) {
	kinds := map[Kind]int{}
	for seed := int64(0); seed < 50; seed++ {
		corrOnly, err := Generate(seed, GenConfig{Corruption: true})
		if err != nil {
			t.Fatal(err)
		}
		a, err := Generate(seed, GenConfig{Corruption: true, Forgery: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(seed, GenConfig{Corruption: true, Forgery: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedules differ:\n%+v\nvs\n%+v", seed, a, b)
		}
		if !reflect.DeepEqual(withoutAuthFaults(a.Events), corrOnly.Events) {
			t.Errorf("seed %d: forgery config disturbed the corruption-config events", seed)
		}
		if !reflect.DeepEqual(a.Switches, corrOnly.Switches) || !reflect.DeepEqual(a.Traffic, corrOnly.Traffic) {
			t.Errorf("seed %d: forgery config disturbed the switches/traffic", seed)
		}
		// Forgery without corruption still appends after the legacy draws.
		legacy, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		fOnly, err := Generate(seed, GenConfig{Forgery: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(withoutAuthFaults(fOnly.Events), legacy.Events) {
			t.Errorf("seed %d: forgery-only config disturbed the legacy fault events", seed)
		}
		for _, ev := range a.Events {
			switch ev.Kind {
			case KindForge:
				if ev.From == ev.Target || ev.At > a.Horizon || ev.Epoch > 2 {
					t.Errorf("seed %d: bad forge event: %+v", seed, ev)
				}
				if int(ev.From) >= a.N || int(ev.Target) >= a.N {
					t.Errorf("seed %d: forge addresses a nonexistent member: %+v", seed, ev)
				}
			case KindReplay:
				if ev.Index < 0 || ev.At > a.Horizon {
					t.Errorf("seed %d: bad replay event: %+v", seed, ev)
				}
			}
			kinds[ev.Kind]++
		}
		if a.HasForgery() != (len(a.Events) > len(corrOnly.Events)) {
			t.Errorf("seed %d: HasForgery()=%v disagrees with event list", seed, a.HasForgery())
		}
		if corrOnly.HasForgery() || legacy.HasForgery() {
			t.Errorf("seed %d: forgery-free schedule claims forgery", seed)
		}
	}
	for _, k := range []Kind{KindForge, KindReplay} {
		if kinds[k] == 0 {
			t.Errorf("50 forgery-enabled seeds never produced kind %v", k)
		}
	}
}

// TestSweepForgery is E16's acceptance gate: ≥200 seeded schedules
// mixing the legacy fault classes, corruption, forged frames, and wire
// replays. Every schedule must pass every invariant — including the two
// new ones (no forged frame reaches an application, no frame is
// accepted twice across any epoch sequence) — and the authenticated
// ingress must demonstrably engage across the sweep.
func TestSweepForgery(t *testing.T) {
	const schedules = 200
	kinds := map[Kind]int{}
	var authFailed, quarantines uint64
	var forged, replayed uint64
	for seed := int64(1); seed <= schedules; seed++ {
		sched, err := Generate(seed, GenConfig{Corruption: true, Forgery: true})
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
		authFailed += res.Stats.AuthFailed
		quarantines += res.Stats.Quarantines
		forged += res.Forged
		replayed += res.Replayed
		for _, v := range res.Violations {
			t.Errorf("seed %d (%v): %s", seed, res.Kinds, v)
		}
		if t.Failed() && seed >= 10 {
			t.Fatalf("aborting sweep after seed %d", seed)
		}
	}
	for _, k := range []Kind{KindForge, KindReplay} {
		if kinds[k] < schedules/10 {
			t.Errorf("fault class %v appeared in only %d/%d schedules", k, kinds[k], schedules)
		}
	}
	if forged == 0 || replayed == 0 {
		t.Errorf("sweep injected %d forged and %d replayed frames — the adversary never acted", forged, replayed)
	}
	if authFailed == 0 {
		t.Error("sweep never rejected a frame at the auth boundary — the authenticated ingress was not exercised")
	}
	if quarantines == 0 {
		t.Error("sweep never quarantined a peer — the forgery floods no longer cross the threshold")
	}
	t.Logf("fault mix over %d schedules: %v; forged %d, replayed %d, auth-failed %d, quarantines %d",
		schedules, kinds, forged, replayed, authFailed, quarantines)
}

// TestRunDeterministicForgery replays forgery schedules twice and
// requires identical outcomes, pinning that the authentication faults
// (crafted frames, the replay tap, and the auth ingress they exercise)
// draw only from the seeded simulation stream.
func TestRunDeterministicForgery(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		sched, err := Generate(seed, GenConfig{Corruption: true, Forgery: true})
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
		if a.Delivered != b.Delivered || !reflect.DeepEqual(a.Stats, b.Stats) ||
			!reflect.DeepEqual(a.Violations, b.Violations) {
			t.Errorf("seed %d (%v): replay diverged:\n  %+v\n  %+v", seed, a.Kinds, a, b)
		}
	}
}

// TestAuthTraceConsistency extends the obs-consistency invariant to
// authentication: across seeded forgery schedules the switching
// counters must equal the trace (checkStatsViews), and the
// network-level forgery/replay events must equal the simnet Stats
// counters. The sweep must be non-vacuous.
func TestAuthTraceConsistency(t *testing.T) {
	var sawAuthFail, sawForged, sawReplayed bool
	for seed := int64(1); seed <= 25; seed++ {
		sched, err := Generate(seed, GenConfig{Corruption: true, Forgery: true})
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

		var forged, replayed uint64
		for _, e := range col.Events() {
			switch e.Type {
			case obs.EvForged:
				forged++
			case obs.EvReplayed:
				replayed++
			}
		}
		checkStatsViews(t, seed, res, c, col.Events())
		sawAuthFail = sawAuthFail || res.Stats.AuthFailed > 0
		if forged != res.Forged || replayed != res.Replayed {
			t.Errorf("seed %d: trace-derived net counters (forged=%d replayed=%d) != registry (%d, %d)",
				seed, forged, replayed, res.Forged, res.Replayed)
		}
		sawForged = sawForged || res.Forged > 0
		sawReplayed = sawReplayed || res.Replayed > 0
	}
	if !sawAuthFail || !sawForged || !sawReplayed {
		t.Errorf("sweep never exercised the auth path (authfail=%v forged=%v replayed=%v) — widen the seed range",
			sawAuthFail, sawForged, sawReplayed)
	}
}
