package chaos

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// withoutFlashCrowd strips flash-crowd events from a schedule's event
// list, leaving the legacy + corruption + forgery prefix.
func withoutFlashCrowd(events []Event) []Event {
	var out []Event
	for _, e := range events {
		if e.Kind != KindFlashCrowd {
			out = append(out, e)
		}
	}
	return out
}

// TestGenerateFlashCrowd pins the flash-crowd generator's contracts:
// determinism, well-formed events, and — critically — that enabling
// flash crowds only appends to the schedules every earlier config would
// generate. The flash-crowd draw happens after every legacy, corruption
// and forgery draw, so Generate(seed, {…, FlashCrowd}) minus the
// flash-crowd events must equal Generate(seed, {…}) exactly.
func TestGenerateFlashCrowd(t *testing.T) {
	flashSeen := 0
	for seed := int64(0); seed < 50; seed++ {
		full, err := Generate(seed, GenConfig{Corruption: true, Forgery: true})
		if err != nil {
			t.Fatal(err)
		}
		a, err := Generate(seed, GenConfig{Corruption: true, Forgery: true, FlashCrowd: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(seed, GenConfig{Corruption: true, Forgery: true, FlashCrowd: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedules differ:\n%+v\nvs\n%+v", seed, a, b)
		}
		if !reflect.DeepEqual(withoutFlashCrowd(a.Events), full.Events) {
			t.Errorf("seed %d: flash-crowd config disturbed the earlier-tier events", seed)
		}
		if !reflect.DeepEqual(a.Switches, full.Switches) || !reflect.DeepEqual(a.Traffic, full.Traffic) {
			t.Errorf("seed %d: flash-crowd config disturbed the switches/traffic", seed)
		}
		// Flash crowds without the adversarial tiers still append after
		// the legacy draws only.
		legacy, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		fcOnly, err := Generate(seed, GenConfig{FlashCrowd: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(withoutFlashCrowd(fcOnly.Events), legacy.Events) {
			t.Errorf("seed %d: flash-crowd-only config disturbed the legacy fault events", seed)
		}
		for _, ev := range a.Events {
			if ev.Kind != KindFlashCrowd {
				continue
			}
			flashSeen++
			if ev.At >= ev.Until || ev.Until > a.Horizon {
				t.Errorf("seed %d: bad flash-crowd window: %+v", seed, ev)
			}
			if ev.Size < 4 || ev.Size > 10 {
				t.Errorf("seed %d: flash-crowd multiplier %d outside [4,10]", seed, ev.Size)
			}
		}
		if a.HasFlashCrowd() != (len(a.Events) > len(full.Events)) {
			t.Errorf("seed %d: HasFlashCrowd()=%v disagrees with event list", seed, a.HasFlashCrowd())
		}
		if full.HasFlashCrowd() || legacy.HasFlashCrowd() {
			t.Errorf("seed %d: flash-crowd-free schedule claims a flash crowd", seed)
		}
	}
	if flashSeen == 0 {
		t.Error("50 flash-crowd-enabled seeds never produced a flash-crowd event")
	}
}

// TestSweepFlashCrowd is E17's acceptance gate: ≥200 seeded schedules
// mixing every fault class with mid-run sender spikes. Every schedule
// must pass every invariant — including bounded memory (no queue ever
// exceeds its cap) and no silent loss (the overload ledger balances) —
// and the overload layer must demonstrably engage across the sweep:
// sheds, backpressure, and retried sends all non-zero.
func TestSweepFlashCrowd(t *testing.T) {
	const schedules = 200
	kinds := map[Kind]int{}
	var shed, backpressured, retried, spikes uint64
	for seed := int64(1); seed <= schedules; seed++ {
		sched, err := Generate(seed, GenConfig{Corruption: true, Forgery: true, FlashCrowd: true})
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
		shed += res.Stats.Shed
		backpressured += res.Stats.Backpressured
		retried += res.Stats.RetriedSends
		spikes += res.Metrics.Count(obs.NoProc, obs.EvSenderSpike)
		for _, v := range res.Violations {
			t.Errorf("seed %d (%v): %s", seed, res.Kinds, v)
		}
		if t.Failed() && seed >= 10 {
			t.Fatalf("aborting sweep after seed %d", seed)
		}
	}
	if kinds[KindFlashCrowd] < schedules/10 {
		t.Errorf("flash crowds appeared in only %d/%d schedules", kinds[KindFlashCrowd], schedules)
	}
	if spikes == 0 {
		t.Error("sweep never spiked the sender population — the fault never fired")
	}
	if shed == 0 {
		t.Error("sweep never shed a frame — the bounded queues were not exercised")
	}
	if backpressured == 0 {
		t.Error("sweep never crossed the high watermark — backpressure was not exercised")
	}
	if retried == 0 {
		t.Error("sweep never retried a shed send — the backoff path was not exercised")
	}
	t.Logf("fault mix over %d schedules: %v; shed %d, backpressured %d, retried %d, spikes %d",
		schedules, kinds, shed, backpressured, retried, spikes)
}

// TestRunDeterministicFlashCrowd replays flash-crowd schedules twice and
// requires identical outcomes, pinning that the overload layer (queue
// service, watermark edges, and the jittered retry backoff) draws only
// from the seeded simulation stream.
func TestRunDeterministicFlashCrowd(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		sched, err := Generate(seed, GenConfig{Corruption: true, Forgery: true, FlashCrowd: true})
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
