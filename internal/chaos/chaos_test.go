package chaos

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"time"
)

// TestGenerateDeterministic pins the replayability contract: the same
// seed always expands to the same schedule.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: schedules differ:\n%+v\nvs\n%+v", seed, a, b)
		}
		if len(a.Events) == 0 {
			t.Fatalf("seed %d: schedule has no faults", seed)
		}
		for _, ev := range a.Events {
			if ev.At > a.Horizon {
				t.Fatalf("seed %d: event after horizon: %+v", seed, ev)
			}
			if ev.Kind != KindCrash && (ev.Until <= ev.At || ev.Until > a.Horizon) {
				t.Fatalf("seed %d: bad fault window: %+v", seed, ev)
			}
			if ev.Kind != KindBurst && ev.Target < 2 {
				t.Fatalf("seed %d: fault targets a sequencer member: %+v", seed, ev)
			}
		}
		if len(a.Switches) == 0 {
			t.Fatalf("seed %d: no switch requests", seed)
		}
	}
}

func TestGenerateRejectsSmallGroups(t *testing.T) {
	if _, err := Generate(1, GenConfig{N: 3}); err == nil {
		t.Fatal("accepted N=3")
	}
}

// TestSweep is E13's acceptance gate: ≥200 seeded fault schedules —
// crashes, partitions, and drop/duplicate/reorder bursts, all with
// switch rounds in flight — every one of which must run to completion
// with no deadlock and no violation of the preserved properties on the
// survivors' traces.
func TestSweep(t *testing.T) {
	const schedules = 200
	kinds := map[Kind]int{}
	for seed := int64(1); seed <= schedules; seed++ {
		sched, err := Generate(seed, GenConfig{})
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
		for _, v := range res.Violations {
			t.Errorf("seed %d (%v): %s", seed, res.Kinds, v)
		}
		if t.Failed() && seed >= 10 {
			t.Fatalf("aborting sweep after seed %d", seed)
		}
	}
	// The sweep must actually have exercised every fault class.
	for _, k := range []Kind{KindCrash, KindPartition, KindBurst} {
		if kinds[k] < schedules/10 {
			t.Errorf("fault class %v appeared in only %d/%d schedules", k, kinds[k], schedules)
		}
	}
	t.Logf("fault mix over %d schedules: %v", schedules, kinds)
}

// TestRecoveryBound asserts the paper-facing recovery-time bound: on a
// clean network, a crash landing at a random point of a switch round is
// detected and the round re-run within 10×TokenInterval of virtual
// time, for every seed.
func TestRecoveryBound(t *testing.T) {
	const ti = 5 * time.Millisecond
	bound := 10 * ti
	worst := time.Duration(0)
	for seed := int64(1); seed <= 25; seed++ {
		d, err := MeasureRecovery(seed, 4, ti)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d > worst {
			worst = d
		}
		if d > bound {
			t.Errorf("seed %d: recovery took %v > %v", seed, d, bound)
		}
	}
	t.Logf("worst recovery over 25 seeds: %v (bound %v)", worst, bound)
}

// TestRunReportsRecoveryWork sanity-checks the result plumbing: a
// schedule with a crash must show the recovery machinery engaging in
// the aggregated stats.
func TestRunReportsRecoveryWork(t *testing.T) {
	var sched Schedule
	for seed := int64(1); ; seed++ {
		s, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Kinds()) == 1 && s.Kinds()[0] == KindCrash {
			sched = s
			break
		}
	}
	res, err := Run(sched, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.Crashed) == 0 || len(res.Live) != sched.N-len(res.Crashed) {
		t.Fatalf("crash bookkeeping wrong: %+v", res)
	}
	if res.Stats.TokenPasses == 0 {
		t.Error("no token passes recorded")
	}
	if res.Delivered == 0 {
		t.Error("no deliveries recorded")
	}
}

// TestGenerateIsPinned holds Generate's output byte for byte: committed
// baselines and the bench's fault_mix workload are functions of these
// schedules, so a change to any draw — its order, its range, which tier
// makes it — must show up here first. The digests are FNV-64a of the
// schedule's %+v rendering, taken before the runner moved to one stack.
func TestGenerateIsPinned(t *testing.T) {
	seeds := []int64{1, 7, 41, 1000}
	tiers := []struct {
		name string
		gen  GenConfig
		want [4]uint64
	}{
		{"base", GenConfig{},
			[4]uint64{0x828a055cc934d92a, 0x8289a1b0dbf51fe, 0xd7d03909b0720ec6, 0x1b37de0fb369ee80}},
		{"corruption", GenConfig{Corruption: true},
			[4]uint64{0x859a81c8047af8db, 0xf68b572890ce71b8, 0x55bcaa16d4512136, 0x7c0f7be4151d3594}},
		{"forgery", GenConfig{Corruption: true, Forgery: true},
			[4]uint64{0xeb566db2e561980b, 0x30eaec898051e5a8, 0x55bcaa16d4512136, 0x1e5e364666f4fd94}},
		{"flashcrowd", GenConfig{FlashCrowd: true},
			[4]uint64{0x828a055cc934d92a, 0xfeb8dd216375855c, 0xd7d03909b0720ec6, 0x1b37de0fb369ee80}},
		{"gray", GenConfig{GrayFailure: true},
			[4]uint64{0x1245f401108d873, 0x2f19a11cb3c83fbf, 0xe540a43fd122b90f, 0x9c7e17900bc1fc34}},
		{"all", GenConfig{Corruption: true, Forgery: true, FlashCrowd: true, GrayFailure: true},
			[4]uint64{0x4a62f6739785a274, 0xcadbe9b77ffb2488, 0xa05db122e712f1d0, 0x1f18369e5921fb80}},
	}
	for _, tier := range tiers {
		for i, seed := range seeds {
			s, err := Generate(seed, tier.gen)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%+v", s)
			if got := h.Sum64(); got != tier.want[i] {
				t.Errorf("%s tier, seed %d: schedule digest %#x, pinned %#x", tier.name, seed, got, tier.want[i])
			}
		}
	}
}
