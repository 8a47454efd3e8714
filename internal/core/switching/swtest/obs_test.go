package swtest_test

import (
	"testing"
	"time"

	"repro/internal/core/switching"
	"repro/internal/core/switching/swtest"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// TestRecorderReachesEveryMember wires one collector through
// switching.Config and checks the black-box contract of the trace a
// cluster run produces: every member contributes events, the stream is
// time-ordered, a requested switch shows up as a start/complete span,
// and replaying the trace through a metrics registry reproduces each
// member's own counters.
func TestRecorderReachesEveryMember(t *testing.T) {
	const n = 4
	col := obs.NewCollector()
	c, err := swtest.NewSwitched(1, simnet.Config{Nodes: n, PropDelay: time.Millisecond}, n,
		switching.Config{Protocols: factories(), Recorder: col})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Sim.At(300*time.Millisecond, func() { c.Members[2].Switch.RequestSwitch() })
	c.Run(time.Second)

	events := col.Events()
	if len(events) == 0 {
		t.Fatal("collector saw no events")
	}
	passers := make(map[ids.ProcID]bool)
	var started, completed int
	last := time.Duration(-1)
	for _, e := range events {
		if e.At < last {
			t.Fatalf("trace not time-ordered: %v after %v", e.At, last)
		}
		last = e.At
		switch e.Type {
		case obs.EvTokenPass:
			passers[e.Proc] = true
		case obs.EvSwitchStart:
			started++
		case obs.EvSwitchComplete:
			completed++
		}
	}
	if len(passers) != n {
		t.Errorf("token passes recorded for %d of %d members", len(passers), n)
	}
	if started == 0 || completed == 0 {
		t.Errorf("requested switch left no span: %d starts, %d completions", started, completed)
	}

	// The trace carries enough to rebuild every member's counters.
	m := obs.NewMetrics()
	for _, e := range events {
		m.Record(e)
	}
	for p := 0; p < n; p++ {
		st := c.Members[p].Switch.Stats()
		pid := ids.ProcID(p)
		if got := m.Count(pid, obs.EvTokenPass); got != st.TokenPasses {
			t.Errorf("member %d: replayed token passes %d != stats %d", p, got, st.TokenPasses)
		}
		if got := m.Count(pid, obs.EvEpochAdvance); got != st.SwitchesCompleted {
			t.Errorf("member %d: replayed switch completions %d != stats %d", p, got, st.SwitchesCompleted)
		}
		if got := m.Count(pid, obs.EvBuffered); got != st.Buffered {
			t.Errorf("member %d: replayed buffer count %d != stats %d", p, got, st.Buffered)
		}
	}
}

// TestNopRecorderByDefault: an unset Config.Recorder must behave
// exactly like obs.Nop — the cluster runs and no recorder is consulted
// (guarded by the switching layer's OrNop normalisation, so this is a
// smoke test that the default path still works end to end).
func TestNopRecorderByDefault(t *testing.T) {
	c, err := swtest.NewSwitched(1, simnet.Config{Nodes: 2, PropDelay: time.Millisecond}, 2,
		switching.Config{Protocols: factories()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Run(200 * time.Millisecond)
	if c.Members[0].Switch.Stats().TokenPasses == 0 {
		t.Error("cluster made no progress without a recorder")
	}
}
