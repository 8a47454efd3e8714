package harness

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs/telemetry"
)

// TestChaosTelemetrySweepByteIdenticalAcrossWorkers is E19's
// determinism gate: a telemetry-enabled chaos sweep must encode a
// byte-identical BENCH_telemetry.json (timing scrubbed) for 1 and 4
// workers — the windowed series and the audit trail, like the trace
// they derive from, are a pure function of the base seed — and must
// actually produce windows and audited rounds so the comparison is not
// vacuous.
func TestChaosTelemetrySweepByteIdenticalAcrossWorkers(t *testing.T) {
	sweep := func(parallel int) (*ChaosSweepResult, []byte) {
		cfg := DefaultChaosSweepConfig()
		cfg.Schedules = 20
		cfg.Telemetry = true
		cfg.Parallel = parallel
		res, err := RunChaosSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		art := NewBenchTelemetry(cfg.Seed, telemetry.Interval, res)
		art.SetTiming(time.Duration(parallel)*time.Millisecond, parallel) // differs per run on purpose
		art.ScrubTiming()
		b, err := EncodeBench(art)
		if err != nil {
			t.Fatal(err)
		}
		return res, b
	}
	seq, seqJSON := sweep(1)
	par, parJSON := sweep(4)
	if len(seq.Failures) != 0 {
		for _, f := range seq.Failures {
			t.Errorf("seed %d (%v): %v", f.Seed, f.Kinds, f.Violations)
		}
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Errorf("telemetry JSON differs across worker counts:\n%s\nvs\n%s", seqJSON, parJSON)
	}
	if len(seq.Windows) == 0 || len(seq.Rounds) == 0 {
		t.Fatalf("telemetry sweep produced %d windows and %d rounds — nothing sampled",
			len(seq.Windows), len(seq.Rounds))
	}
	if len(par.Windows) != len(seq.Windows) || len(par.Rounds) != len(seq.Rounds) {
		t.Errorf("series lengths diverged across worker counts: %d/%d vs %d/%d windows/rounds",
			len(seq.Windows), len(seq.Rounds), len(par.Windows), len(par.Rounds))
	}

	// The summary counters the benchdiff gate reads must be non-trivial:
	// a sweep with switch requests audits completed rounds.
	art := NewBenchTelemetry(1, telemetry.Interval, seq)
	if art.RoundsComplete == 0 {
		t.Error("no completed rounds audited across the sweep")
	}
	if art.RoundsComplete+art.RoundsAborted != art.Rounds {
		t.Errorf("outcomes do not partition the rounds: %d complete + %d aborted != %d",
			art.RoundsComplete, art.RoundsAborted, art.Rounds)
	}
}
