package chaos

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/obs"
)

// legacyOnly strips adversarial-input events from a schedule's event
// list, leaving the crash/partition/burst prefix.
func legacyOnly(events []Event) []Event {
	var out []Event
	for _, e := range events {
		switch e.Kind {
		case KindCorrupt, KindTruncate, KindGarbage:
		default:
			out = append(out, e)
		}
	}
	return out
}

// TestGenerateCorruption pins the corruption generator's contracts:
// determinism, well-formed events, and — critically — that enabling
// corruption only appends to the legacy schedule. The corruption draws
// happen after every legacy draw, so the crash/partition/burst events,
// switch requests, and traffic of Generate(seed, {Corruption: true})
// must equal Generate(seed, {}) exactly.
func TestGenerateCorruption(t *testing.T) {
	kinds := map[Kind]int{}
	for seed := int64(0); seed < 50; seed++ {
		legacy, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		a, err := Generate(seed, GenConfig{Corruption: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(seed, GenConfig{Corruption: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedules differ:\n%+v\nvs\n%+v", seed, a, b)
		}
		if !reflect.DeepEqual(legacyOnly(a.Events), legacy.Events) {
			t.Errorf("seed %d: corruption config disturbed the legacy fault events:\n%+v\nvs\n%+v",
				seed, legacyOnly(a.Events), legacy.Events)
		}
		if !reflect.DeepEqual(a.Switches, legacy.Switches) || !reflect.DeepEqual(a.Traffic, legacy.Traffic) {
			t.Errorf("seed %d: corruption config disturbed the legacy switches/traffic", seed)
		}
		for _, ev := range a.Events {
			switch ev.Kind {
			case KindCorrupt:
				if ev.Corrupt <= 0 || ev.Corrupt >= 1 || ev.Until <= ev.At || ev.Until > a.Horizon {
					t.Errorf("seed %d: bad corrupt window: %+v", seed, ev)
				}
			case KindTruncate:
				if ev.Truncate <= 0 || ev.Truncate >= 1 || ev.Until <= ev.At || ev.Until > a.Horizon {
					t.Errorf("seed %d: bad truncate window: %+v", seed, ev)
				}
			case KindGarbage:
				if ev.Size <= 0 || ev.From == ev.Target || ev.At > a.Horizon {
					t.Errorf("seed %d: bad garbage event: %+v", seed, ev)
				}
				if int(ev.From) >= a.N || int(ev.Target) >= a.N {
					t.Errorf("seed %d: garbage addresses a nonexistent member: %+v", seed, ev)
				}
			}
			kinds[ev.Kind]++
		}
		if got := hasKind(a, KindCorrupt, KindTruncate, KindGarbage); got != (len(a.Events) > len(legacy.Events)) {
			t.Errorf("seed %d: corruption kinds present=%v disagrees with event list", seed, got)
		}
		if hasKind(legacy, KindCorrupt, KindTruncate, KindGarbage) {
			t.Errorf("seed %d: legacy schedule claims corruption", seed)
		}
	}
	for _, k := range []Kind{KindCorrupt, KindTruncate, KindGarbage} {
		if kinds[k] == 0 {
			t.Errorf("50 corruption-enabled seeds never produced kind %v", k)
		}
	}
}

// TestSweepCorruption is E15's acceptance gate: ≥200 seeded schedules
// mixing the base fault classes with bit-flip corruption, truncation,
// and garbage injection. Every schedule must pass every invariant —
// including the no-panic invariant — and the defensive ingress must
// demonstrably engage across the sweep: a damaged frame fails its MAC
// (auth-rejected) or, if it gets as far as a header, fails to decode
// (malformed-dropped).
func TestSweepCorruption(t *testing.T) {
	const schedules = 200
	kinds := map[Kind]int{}
	var rejected, quarantines uint64
	for seed := int64(1); seed <= schedules; seed++ {
		sched, err := Generate(seed, GenConfig{Corruption: true})
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
		rejected += res.Stats.AuthFailed + res.Stats.MalformedDropped
		quarantines += res.Stats.Quarantines
		for _, v := range res.Violations {
			t.Errorf("seed %d (%v): %s", seed, res.Kinds, v)
		}
		if t.Failed() && seed >= 10 {
			t.Fatalf("aborting sweep after seed %d", seed)
		}
	}
	for _, k := range []Kind{KindCorrupt, KindTruncate, KindGarbage} {
		if kinds[k] < schedules/10 {
			t.Errorf("fault class %v appeared in only %d/%d schedules", k, kinds[k], schedules)
		}
	}
	if rejected == 0 {
		t.Error("sweep never rejected a damaged packet — the defensive ingress was not exercised")
	}
	if quarantines == 0 {
		t.Error("sweep never quarantined a peer — the garbage floods no longer cross the threshold")
	}
	t.Logf("fault mix over %d schedules: %v; auth-rejected + malformed-dropped %d, quarantines %d",
		schedules, kinds, rejected, quarantines)
}

// TestRunDeterministicCorruption replays corruption schedules twice and
// requires identical outcomes, pinning that the corruption faults (and
// the defensive ingress they exercise) draw only from the seeded
// simulation stream.
func TestRunDeterministicCorruption(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		sched, err := Generate(seed, GenConfig{Corruption: true})
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

// TestCapturePanic pins the no-panic invariant's plumbing: a panic in
// the guarded section becomes a violation string instead of crashing.
func TestCapturePanic(t *testing.T) {
	if got := capturePanic(func() {}); got != "" {
		t.Fatalf("clean run produced violation %q", got)
	}
	if got := capturePanic(func() { panic("boom") }); got != "panic: boom" {
		t.Fatalf("panic rendered as %q", got)
	}
}

// TestMalformedTraceConsistency extends the obs-consistency invariant
// to the network's corruption counters: across seeded corruption
// schedules the EvCorrupt / EvTruncate / EvGarbage trace events must
// equal the simnet Stats counters (the members' own rejection counters
// are checkStatsViews'). The sweep must be non-vacuous: it has to
// actually observe rejected frames and at least one corruption fault of
// each network class.
func TestMalformedTraceConsistency(t *testing.T) {
	var sawRejected, sawCorrupt, sawTruncate, sawGarbage bool
	for seed := int64(1); seed <= 25; seed++ {
		sched, err := Generate(seed, GenConfig{Corruption: true})
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

		var corrupts, truncates, garbage uint64
		for _, e := range col.Events() {
			switch e.Type {
			case obs.EvCorrupt:
				corrupts++
			case obs.EvTruncate:
				truncates++
			case obs.EvGarbage:
				garbage++
			}
		}
		checkStatsViews(t, seed, res, c, col.Events())
		regCorrupts, regTruncates := registryTotal(res, obs.EvCorrupt), registryTotal(res, obs.EvTruncate)
		regGarbage := registryTotal(res, obs.EvGarbage)
		if corrupts != regCorrupts || truncates != regTruncates || garbage != regGarbage {
			t.Errorf("seed %d: trace-derived net counters (corrupt=%d truncate=%d garbage=%d) != registry (%d, %d, %d)",
				seed, corrupts, truncates, garbage, regCorrupts, regTruncates, regGarbage)
		}
		sawRejected = sawRejected || res.Stats.AuthFailed+res.Stats.MalformedDropped > 0
		sawCorrupt = sawCorrupt || regCorrupts > 0
		sawTruncate = sawTruncate || regTruncates > 0
		sawGarbage = sawGarbage || regGarbage > 0
	}
	if !sawRejected || !sawCorrupt || !sawTruncate || !sawGarbage {
		t.Errorf("sweep never exercised the hardening path (rejected=%v corrupt=%v truncate=%v garbage=%v) — widen the seed range",
			sawRejected, sawCorrupt, sawTruncate, sawGarbage)
	}
}

// hasKind reports whether any of kinds is among the schedule's Kinds().
func hasKind(s Schedule, kinds ...Kind) bool {
	return slices.ContainsFunc(s.Kinds(), func(k Kind) bool { return slices.Contains(kinds, k) })
}
