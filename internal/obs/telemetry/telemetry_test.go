package telemetry

import (
	"testing"
	"time"

	"repro/internal/obs"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSamplerWindowsAndConsistency(t *testing.T) {
	s := NewSampler()
	// The cumulative registry is fed the same events, as chaos.Run feeds
	// its own registry beside the sampler.
	m := obs.NewMetrics()
	rec := obs.Multi(s, m.Recorder())
	// Window 0: two token passes at member 1, one drop at member 2.
	rec.Record(obs.TokenPass(ms(10), 1, 2, 1, 0, 0))
	rec.Record(obs.TokenPass(ms(20), 1, 2, 1, 0, 0))
	rec.Record(obs.Drop(ms(30), 2, 1, obs.DropRandom))
	// Window 2 (window 1 idle): one pass plus a completed switch.
	rec.Record(obs.TokenPass(ms(250), 1, 2, 1, 1, 0))
	rec.Record(obs.SwitchComplete(ms(260), 1, 0, 0, 31*time.Millisecond))
	s.Finish(ms(400))

	ws := s.Windows()
	if len(ws) != 2 {
		t.Fatalf("windows = %d, want 2 (idle windows are not emitted)", len(ws))
	}
	if ws[0].Index != 0 || ws[1].Index != 2 {
		t.Fatalf("window indices = %d,%d want 0,2", ws[0].Index, ws[1].Index)
	}
	if ws[1].StartNS != 200*time.Millisecond {
		t.Errorf("window 2 start = %v", ws[1].StartNS)
	}
	if len(ws[0].Members) != 2 || ws[0].Members[0].Proc != 1 || ws[0].Members[1].Proc != 2 {
		t.Fatalf("window 0 members wrong: %+v", ws[0].Members)
	}
	if got := ws[0].Members[0].Counters[obs.KeyTokenPasses]; got != 2 {
		t.Errorf("window 0 member 1 passes = %d", got)
	}
	if ws[1].Members[0].SwitchDur == nil || ws[1].Members[0].SwitchDur.Count != 1 {
		t.Fatalf("window 2 switch histogram missing: %+v", ws[1].Members[0])
	}
	if got := ws[1].Members[0].P99US; got != 31_000 {
		t.Errorf("window 2 p99 = %dµs, want 31000 (singleton == exact)", got)
	}

	// Consistency: windowed sums reproduce the cumulative registry.
	if len(m.Procs()) != 2 {
		t.Fatalf("registry members = %v, want 2", m.Procs())
	}
	for _, p := range m.Procs() {
		sums := make(map[string]uint64)
		for _, w := range ws {
			for _, mw := range w.Members {
				if mw.Proc == int(p) {
					for k, v := range mw.Counters {
						sums[k] += v
					}
				}
			}
		}
		for k, v := range sums {
			if got := m.Counter(p, k); got != v {
				t.Errorf("member %d key %s: cumulative %d != windowed sum %d", p, k, got, v)
			}
		}
	}
}

func TestSamplerGauges(t *testing.T) {
	s := NewSampler()
	s.Record(obs.QueueDepth(ms(10), 3, 7))
	s.Record(obs.QueueDepth(ms(20), 3, 4)) // last sample in window wins
	s.Record(obs.Suspect(ms(30), 2, 5))
	s.Record(obs.Suspect(ms(40), 2, 5)) // duplicate suspicion: still one peer
	s.Record(obs.Suspect(ms(50), 2, 6))
	s.Finish(ms(100))
	ws := s.Windows()
	if len(ws) != 1 {
		t.Fatalf("windows = %d", len(ws))
	}
	var m3, m2 *MemberWindow
	for i := range ws[0].Members {
		switch ws[0].Members[i].Proc {
		case 3:
			m3 = &ws[0].Members[i]
		case 2:
			m2 = &ws[0].Members[i]
		}
	}
	if m3 == nil || m3.QueueDepth != 4 {
		t.Errorf("queue depth gauge = %+v, want 4", m3)
	}
	if m2 == nil || m2.Suspects != 2 {
		t.Errorf("suspect gauge = %+v, want 2", m2)
	}
}

// TestSamplerSuspectGaugeFalls pins the paired-event contract: an
// EvSuspectCleared removes its peer from the suspect set and snapshots
// the gauge in the window the clear landed in — including all the way
// back to zero, which the EvSuspect-only path could never show.
func TestSamplerSuspectGaugeFalls(t *testing.T) {
	s := NewSampler()
	s.Record(obs.Suspect(ms(10), 2, 5))
	s.Record(obs.Suspect(ms(20), 2, 6))
	s.Record(obs.SuspectCleared(ms(110), 2, 5))
	s.Record(obs.SuspectCleared(ms(210), 2, 6))
	s.Finish(ms(300))
	ws := s.Windows()
	if len(ws) != 3 {
		t.Fatalf("windows = %d, want 3", len(ws))
	}
	want := []int{2, 1, 0}
	for i, w := range ws {
		if len(w.Members) != 1 || w.Members[0].Proc != 2 {
			t.Fatalf("window %d members wrong: %+v", i, w.Members)
		}
		if got := w.Members[0].Suspects; got != want[i] {
			t.Errorf("window %d suspect gauge = %d, want %d", i, got, want[i])
		}
	}
	// The clear counter lands in the windows like any other mirrored
	// counter.
	var cleared uint64
	for _, w := range ws {
		cleared += w.Members[0].Counters[obs.KeySuspectsCleared]
	}
	if cleared != 2 {
		t.Errorf("suspects_cleared windowed sum = %d, want 2", cleared)
	}
}

func TestSamplerFinishIdempotentAndTickOnly(t *testing.T) {
	s := NewSampler()
	// Tick without events opens nothing and emits nothing.
	s.Tick(ms(500))
	s.Finish(ms(1000))
	s.Finish(ms(1000))
	if len(s.Windows()) != 0 {
		t.Fatalf("idle sampler emitted %d windows", len(s.Windows()))
	}
}

func TestAuditStitchesRounds(t *testing.T) {
	a := NewAudit(Config{Protocols: 2})
	// Round for epoch 0: initiator 1 starts, member 2 buffers a frame
	// for epoch 1, everyone advances, initiator completes.
	a.Record(obs.SwitchStart(ms(10), 1, 0, 3))
	a.Record(obs.Buffered(ms(12), 2, 0, 1))
	a.Record(obs.EpochAdvance(ms(14), 2, 1))
	a.Record(obs.EpochAdvance(ms(15), 1, 1))
	a.Record(obs.SwitchComplete(ms(16), 1, 0, 3, 6*time.Millisecond))
	a.Record(obs.StaleDrop(ms(40), 2, 0, 0))
	// Round for epoch 1: start, regen mid-round, takeover start by 2,
	// abort by the superseded initiator — never completes.
	a.Record(obs.SwitchStart(ms(100), 1, 1, 3))
	a.Record(obs.TokenRegen(ms(120), 2, 1, 4))
	a.Record(obs.SwitchStart(ms(121), 2, 1, 4))
	a.Record(obs.SwitchAbort(ms(125), 1, 1, 4))
	// Stale drop for an epoch no round record exists for: ignored.
	a.Record(obs.StaleDrop(ms(130), 3, 4, 7))

	rounds := a.Finalize()
	if len(rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(rounds))
	}
	r0, r1 := rounds[0], rounds[1]
	if r0.Epoch != 0 || r0.Initiator != 1 || r0.Outcome != OutcomeComplete {
		t.Fatalf("round 0 wrong: %+v", r0)
	}
	if r0.DurationNS != 6*time.Millisecond || r0.Starts != 1 || r0.Advances != 2 ||
		r0.Buffered != 1 || r0.StaleDropped != 1 {
		t.Errorf("round 0 counts wrong: %+v", r0)
	}
	if r0.ProtoBefore != 0 || r0.ProtoAfter != 1 {
		t.Errorf("round 0 protocols = %d->%d, want 0->1", r0.ProtoBefore, r0.ProtoAfter)
	}
	if r1.Epoch != 1 || r1.Outcome != OutcomeAbort {
		t.Fatalf("round 1 wrong: %+v", r1)
	}
	if r1.Starts != 2 || r1.Initiator != 1 || r1.Aborts != 1 || r1.Regens != 1 || r1.Gen != 4 {
		t.Errorf("round 1 counts wrong: %+v", r1)
	}
	if r1.ProtoBefore != 1 || r1.ProtoAfter != 0 {
		t.Errorf("round 1 protocols = %d->%d, want 1->0", r1.ProtoBefore, r1.ProtoAfter)
	}

	// Unknown protocol cycle: indices are -1.
	b := NewAudit(Config{})
	b.Record(obs.SwitchStart(ms(1), 0, 0, 1))
	if rs := b.Finalize(); rs[0].ProtoBefore != -1 || rs[0].ProtoAfter != -1 {
		t.Errorf("unknown cycle should render -1: %+v", rs[0])
	}
}

func TestMergeTagsRuns(t *testing.T) {
	ws := MergeWindows([][]Window{
		{{Index: 0}, {Index: 1}},
		nil,
		{{Index: 0}},
	})
	if len(ws) != 3 || ws[0].Run != 0 || ws[2].Run != 2 {
		t.Fatalf("MergeWindows wrong: %+v", ws)
	}
	rs := MergeRounds([][]Round{
		{{Epoch: 0}},
		{{Epoch: 0}, {Epoch: 1}},
	})
	if len(rs) != 3 || rs[1].Run != 1 || rs[2].Run != 1 {
		t.Fatalf("MergeRounds wrong: %+v", rs)
	}
}

func TestTelemetryBundle(t *testing.T) {
	tel := New(Config{Protocols: 2})
	if !tel.Enabled() {
		t.Fatal("telemetry recorder disabled")
	}
	tel.Record(obs.SwitchStart(ms(10), 1, 0, 1))
	tel.Record(obs.SwitchComplete(ms(20), 1, 0, 1, 10*time.Millisecond))
	tel.Finish(ms(100))
	if len(tel.Sampler.Windows()) != 1 {
		t.Errorf("bundle sampler windows = %d", len(tel.Sampler.Windows()))
	}
	rounds := tel.Audit.Finalize()
	if len(rounds) != 1 || rounds[0].Outcome != OutcomeComplete {
		t.Errorf("bundle audit rounds wrong: %+v", rounds)
	}
	if tel.String() == "" {
		t.Error("empty summary")
	}
}
