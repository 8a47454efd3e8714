package harness

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core/switching"
)

func TestBenchStatsMillis(t *testing.T) {
	s := toBenchStats(LatencyStats{Count: 3, Mean: 1500 * time.Microsecond, P50: time.Millisecond,
		P95: 2 * time.Millisecond, P99: 3 * time.Millisecond, Max: 4 * time.Millisecond})
	if s.Count != 3 || s.MeanMS != 1.5 || s.P50MS != 1 || s.MaxMS != 4 {
		t.Errorf("toBenchStats = %+v", s)
	}
}

func TestBenchMetaTimingAndScrub(t *testing.T) {
	m := benchMeta("figure2", 7, 1_000_000)
	if m.Schema != "switchbench/figure2" || m.Version != BenchSchemaVersion || m.Seed != 7 {
		t.Errorf("meta = %+v", m)
	}
	m.SetTiming(2*time.Second, 4)
	if m.Timing.WallMS != 2000 || m.Timing.Parallel != 4 || m.Timing.EventsPerSec != 500_000 {
		t.Errorf("timing = %+v", m.Timing)
	}
	m.ScrubTiming()
	if m.Timing != (BenchTiming{}) {
		t.Errorf("scrubbed timing = %+v", m.Timing)
	}
	// Zero wall must not divide by zero.
	m.SetTiming(0, 1)
	if m.Timing.EventsPerSec != 0 {
		t.Errorf("events/sec at zero wall = %v", m.Timing.EventsPerSec)
	}
}

func TestEncodeBenchShape(t *testing.T) {
	res := &Figure2Result{
		Rows: []Figure2Row{{ActiveSenders: 1,
			Sequencer: LatencyStats{Count: 1, Mean: time.Millisecond},
			Token:     LatencyStats{Count: 1, Mean: 2 * time.Millisecond},
			Hybrid:    LatencyStats{Count: 1, Mean: time.Millisecond},
			Events:    42}},
		CrossoverAfter:  0,
		HybridThreshold: 5.5,
		Run:             DefaultRunConfig(),
	}
	art := NewBenchFigure2(res)
	if art.Events != 42 || art.Group != 10 || art.HybridThreshold != 5.5 {
		t.Errorf("artifact = %+v", art)
	}
	b, err := EncodeBench(art)
	if err != nil {
		t.Fatal(err)
	}
	out := string(b)
	for _, want := range []string{`"schema": "switchbench/figure2"`,
		fmt.Sprintf(`"version": %d`, BenchSchemaVersion),
		`"rows"`, `"hybrid"`, `"hybrid_threshold": 5.5`, `"timing"`, `"events": 42`,
		`"stddev_ms"`, `"min_ms"`} {
		if !strings.Contains(out, want) {
			t.Errorf("encoded artifact missing %s:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("artifact missing trailing newline")
	}
	// Round-trips as valid JSON.
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if _, ok := m["timing"]; !ok {
		t.Error("timing section not at top level")
	}
}

func TestNewBenchChaosCounts(t *testing.T) {
	res := &ChaosSweepResult{
		Schedules: 5,
		KindCounts: map[chaos.Kind]int{
			chaos.KindCrash: 2, chaos.KindPartition: 3, chaos.KindBurst: 1,
		},
		Failures: []*chaos.Result{{Seed: 9, Kinds: []chaos.Kind{chaos.KindCrash},
			Violations: []string{"liveness: probe lost"}}},
		Delivered:     100,
		WorstRecovery: 20 * time.Millisecond,
		Bound:         50 * time.Millisecond,
		Events:        1234,
	}
	art := NewBenchChaos(3, res)
	if art.Passed != 4 || art.Failed != 1 || art.WithCrashes != 2 || art.WithPartitions != 3 {
		t.Errorf("chaos artifact = %+v", art)
	}
	if art.WorstRecoveryMS != 20 || art.RecoveryBoundMS != 50 || art.Events != 1234 {
		t.Errorf("chaos artifact bounds = %+v", art)
	}
	if len(art.Failures) != 1 || art.Failures[0].Seed != 9 || art.Failures[0].Kinds[0] != "crash" {
		t.Errorf("chaos failures = %+v", art.Failures)
	}
	b, err := EncodeBench(art)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"failures"`) {
		t.Error("failing sweep artifact omits failures")
	}
	// A passing sweep omits the failures key entirely.
	res.Failures = nil
	b, err = EncodeBench(NewBenchChaos(3, res))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"failures"`) {
		t.Error("passing sweep artifact includes failures key")
	}
}

// TestBenchChaosForgeryShape pins the v4 schema compatibility contract
// both ways: a forgery sweep's artifact carries the new forgery/auth
// keys, while a forgery-free sweep's artifact omits every one of them —
// byte-wise it keeps its v3 shape (modulo the version number), so
// existing artifact diffing across the repo's history still lines up.
func TestBenchChaosForgeryShape(t *testing.T) {
	forgeryRes := &ChaosSweepResult{
		Schedules: 5,
		KindCounts: map[chaos.Kind]int{
			chaos.KindCrash: 2, chaos.KindForge: 3, chaos.KindReplay: 2,
		},
		Delivered: 100,
		Forged:    17,
		Replayed:  4,
		Stats:     switching.Stats{AuthFailed: 29, Quarantines: 1},
	}
	art := NewBenchChaos(3, forgeryRes)
	if art.WithForgery != 3 || art.WithReplay != 2 || art.ForgedFrames != 17 ||
		art.ReplayedFrames != 4 || art.Switching.AuthFailed != 29 {
		t.Errorf("forgery artifact = %+v", art)
	}
	b, err := EncodeBench(art)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"with_forgery": 3`, `"with_replay": 2`,
		`"forged_frames": 17`, `"replayed_frames": 4`, `"auth_failed": 29`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("forgery artifact missing %s:\n%s", want, b)
		}
	}

	// Forgery-free sweep: none of the v4 keys may appear.
	legacyRes := &ChaosSweepResult{
		Schedules: 5,
		KindCounts: map[chaos.Kind]int{
			chaos.KindCrash: 2, chaos.KindPartition: 3,
		},
		Delivered: 100,
		Stats:     switching.Stats{SwitchesCompleted: 7},
	}
	b, err = EncodeBench(NewBenchChaos(3, legacyRes))
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"with_forgery", "with_replay",
		"forged_frames", "replayed_frames", "auth_failed",
		"with_corruption", "malformed_dropped", "quarantines"} {
		if strings.Contains(string(b), banned) {
			t.Errorf("forgery-free artifact leaks key %q:\n%s", banned, b)
		}
	}
}
