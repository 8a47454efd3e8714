package chaos

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
)

// TestTelemetryWindowsMatchCumulativeMetrics is the sampler-side
// consistency invariant over real chaos runs: summing a member's
// windowed counter deltas over the whole series must reproduce the
// run's cumulative metrics registry exactly — the windows are a
// partition of the event stream, not a resampling of it. Checked for
// every member and every counter key, in both directions (no key
// appears in the windows that the registry lacks).
func TestTelemetryWindowsMatchCumulativeMetrics(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		sched, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		res, err := Run(sched, RunConfig{Telemetry: true})
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if res.Failed() {
			t.Fatalf("seed %d: invariants violated: %v", seed, res.Violations)
		}
		if len(res.Windows) == 0 {
			t.Fatalf("seed %d: telemetry produced no windows", seed)
		}

		sums := make(map[ids.ProcID]map[string]uint64)
		for _, w := range res.Windows {
			for _, mw := range w.Members {
				p := ids.ProcID(mw.Proc)
				if sums[p] == nil {
					sums[p] = make(map[string]uint64)
				}
				for k, v := range mw.Counters {
					sums[p][k] += v
				}
			}
		}
		for _, mm := range res.Metrics.Snapshot() {
			p := ids.ProcID(mm.Proc)
			for k, v := range mm.Counters {
				if got := sums[p][k]; got != v {
					t.Errorf("seed %d: member %d key %s: windowed sum %d != cumulative %d",
						seed, mm.Proc, k, got, v)
				}
				delete(sums[p], k)
			}
			for k, v := range sums[p] {
				if v != 0 {
					t.Errorf("seed %d: member %d key %s: windows carry %d events the registry never saw",
						seed, mm.Proc, k, v)
				}
			}
		}
	}
}

// TestAuditRoundsExactlyOnce is the audit-trail acceptance invariant
// over real chaos runs: every switch round observed on the wire — every
// epoch carrying a SwitchStart, SwitchComplete, or SwitchAbort — yields
// exactly one audit record with a terminal outcome, the record's
// lifecycle counts equal the trace's event counts for that epoch, and
// no record exists for an epoch the round vocabulary never touched. The
// seed range must exercise both terminal outcomes so neither branch
// passes vacuously.
func TestAuditRoundsExactlyOnce(t *testing.T) {
	var sawComplete, sawAbort bool
	for seed := int64(1); seed <= 25; seed++ {
		sched, err := Generate(seed, GenConfig{})
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		col := obs.NewCollector()
		res, err := Run(sched, RunConfig{Recorder: col, Telemetry: true})
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if res.Failed() {
			t.Fatalf("seed %d: invariants violated: %v", seed, res.Violations)
		}

		type lifecycle struct{ starts, completes, aborts int }
		traced := make(map[uint64]*lifecycle)
		at := func(epoch uint64) *lifecycle {
			lc := traced[epoch]
			if lc == nil {
				lc = &lifecycle{}
				traced[epoch] = lc
			}
			return lc
		}
		for _, e := range col.Events() {
			switch e.Type {
			case obs.EvSwitchStart:
				at(e.Epoch).starts++
			case obs.EvSwitchComplete:
				at(e.Epoch).completes++
			case obs.EvSwitchAbort:
				at(e.Epoch).aborts++
			}
		}

		seen := make(map[uint64]bool)
		for _, r := range res.Rounds {
			if seen[r.Epoch] {
				t.Errorf("seed %d: epoch %d audited twice", seed, r.Epoch)
			}
			seen[r.Epoch] = true
			lc := traced[r.Epoch]
			if lc == nil {
				t.Errorf("seed %d: audit fabricated a round for epoch %d (no round events in trace)",
					seed, r.Epoch)
				continue
			}
			if r.Starts != lc.starts || r.Completes != lc.completes || r.Aborts != lc.aborts {
				t.Errorf("seed %d: epoch %d lifecycle (starts %d completes %d aborts %d) != trace (%d %d %d)",
					seed, r.Epoch, r.Starts, r.Completes, r.Aborts, lc.starts, lc.completes, lc.aborts)
			}
			switch r.Outcome {
			case telemetry.OutcomeComplete:
				if lc.completes == 0 {
					t.Errorf("seed %d: epoch %d marked complete with no completion in trace", seed, r.Epoch)
				}
				sawComplete = true
			case telemetry.OutcomeAbort:
				if lc.completes != 0 {
					t.Errorf("seed %d: epoch %d marked abort despite %d completions", seed, r.Epoch, lc.completes)
				}
				sawAbort = true
			default:
				t.Errorf("seed %d: epoch %d has non-terminal outcome %q", seed, r.Epoch, r.Outcome)
			}
			if r.ProtoBefore < 0 || r.ProtoAfter < 0 {
				t.Errorf("seed %d: epoch %d did not resolve protocols: %d->%d",
					seed, r.Epoch, r.ProtoBefore, r.ProtoAfter)
			}
		}
		for epoch := range traced {
			if !seen[epoch] {
				t.Errorf("seed %d: epoch %d has round events but no audit record", seed, epoch)
			}
		}
	}
	if !sawComplete || !sawAbort {
		t.Errorf("sweep never exercised both outcomes (complete=%v abort=%v) — widen the seed range",
			sawComplete, sawAbort)
	}
}
