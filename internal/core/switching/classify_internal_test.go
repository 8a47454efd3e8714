package switching

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestClassifyVerdicts drives the control plane's admission rule through
// onControl, one hand-built member state per case, at p0 of a quiet
// group (quietGroup) one token interval in, so that any re-arm of the
// wedge timer moves its deadline.
//
//   - A past token is not passed on, changes no state and leaves the
//     next wedge deadline where it was.
//   - A future token makes exactly one forced advance, then is handled
//     as current.
//   - A current token is handled, and its sighting re-arms the timer.
//
// A lone member's loop-back stays current too; TestLoneSurvivorHoldsOneLineage
// covers it.
func TestClassifyVerdicts(t *testing.T) {
	lap := func(m Mode, epoch uint64) Token {
		return Token{Mode: m, Epoch: epoch, Initiator: 2, Vector: make([]uint64, 4)}
	}
	completed := func(s *Switch) { s.setSendEpoch(1); s.deliverEpoch = 1 }
	cases := []struct {
		name  string
		setup func(s *Switch)
		tok   Token
		want  verdict
		check func(t *testing.T, s *Switch)
	}{
		{
			name:  "superseded NORMAL",
			setup: func(s *Switch) { s.rec.gen = 2 },
			tok:   Token{Mode: ModeNormal, Initiator: 1, Gen: 1, Origin: 1},
			want:  past,
		},
		{
			name:  "PREPARE lap already passed",
			setup: func(s *Switch) { s.setSendEpoch(1); s.passed = lap(ModePrepare, 0) },
			tok:   lap(ModePrepare, 0),
			want:  past,
		},
		{
			name:  "SWITCH lap already passed",
			setup: func(s *Switch) { s.setSendEpoch(1); s.passed = lap(ModeSwitch, 0) },
			tok:   lap(ModeSwitch, 0),
			want:  past,
		},
		{
			name:  "FLUSH lap already passed",
			setup: func(s *Switch) { completed(s); s.passed = lap(ModeFlush, 0) },
			tok:   lap(ModeFlush, 0),
			want:  past,
		},
		{
			name:  "PREPARE behind a SWITCH already passed",
			setup: func(s *Switch) { s.setSendEpoch(1); s.passed = lap(ModeSwitch, 0) },
			tok:   lap(ModePrepare, 0),
			want:  past,
		},
		{
			name:  "own round a newer lineage relieved",
			setup: func(s *Switch) { s.setSendEpoch(1) },
			tok:   Token{Mode: ModeSwitch, Initiator: 0, Vector: make([]uint64, 4)},
			want:  past,
		},
		{
			// Its send count for epoch 0 is pruned: a 0 written in its
			// place would let the retry close the epoch without this
			// member's messages.
			name: "PREPARE two epochs behind, newer lineage",
			setup: func(s *Switch) {
				s.setSendEpoch(2)
				s.deliverEpoch = 2
			},
			tok:  Token{Mode: ModePrepare, Epoch: 0, Initiator: 3, Vector: make([]uint64, 4), Gen: 1, Origin: 3},
			want: past,
		},
		{
			name: "NORMAL from an epoch ahead",
			tok:  Token{Mode: ModeNormal, Epoch: 1, Initiator: 1},
			want: future,
		},
		{
			name:  "PREPARE from an epoch ahead",
			tok:   lap(ModePrepare, 1),
			want:  future,
			check: func(t *testing.T, s *Switch) { wantEpochs(t, s, 1, 2) },
		},
		{
			// p2's 3 messages of epoch 1 keep the late joiner draining.
			name:  "SWITCH from an epoch ahead joins late",
			tok:   Token{Mode: ModeSwitch, Epoch: 1, Initiator: 2, Vector: []uint64{0, 0, 3, 0}},
			want:  future,
			check: func(t *testing.T, s *Switch) { wantEpochs(t, s, 1, 2) },
		},
		{
			name:  "FLUSH of a round never entered",
			tok:   lap(ModeFlush, 0),
			want:  future,
			check: func(t *testing.T, s *Switch) { wantEpochs(t, s, 1, 1) },
		},
		{
			name: "retry PREPARE of a newer lineage at a member that completed",
			setup: func(s *Switch) {
				s.sent[0] = 5
				completed(s)
				s.passed = lap(ModePrepare, 0)
			},
			tok:  Token{Mode: ModePrepare, Epoch: 0, Initiator: 3, Vector: make([]uint64, 4), Gen: 1, Origin: 3},
			want: current,
			check: func(t *testing.T, s *Switch) {
				if got := s.passed.Vector[0]; got != 5 {
					t.Errorf("retry PREPARE carries count %d for p0, want its retained 5", got)
				}
			},
		},
		{
			name:  "NORMAL rotation repeats its step",
			setup: func(s *Switch) { s.passed = Token{Mode: ModeNormal, Initiator: 1} },
			tok:   Token{Mode: ModeNormal, Initiator: 1},
			want:  current,
		},
		{
			name: "own PREPARE back at its initiator",
			setup: func(s *Switch) {
				s.initiating = true
				s.setSendEpoch(1)
				s.passed = Token{Mode: ModePrepare, Initiator: 0}
			},
			tok:  Token{Mode: ModePrepare, Initiator: 0, Vector: make([]uint64, 4)},
			want: current,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			col := obs.NewCollector()
			sim, _, sw := quietGroup(t, col)
			s := sw[0]
			sim.RunUntil(s.cfg.TokenInterval)
			if c.setup != nil {
				c.setup(s)
			}
			if got := s.classify(c.tok); got != c.want {
				t.Fatalf("classify = %d, want %d", got, c.want)
			}
			deadline := wedgeDeadline(s)
			gen, origin := s.rec.gen, s.rec.origin
			epoch, sendEpoch, forced := s.Epoch(), s.SendEpoch(), s.stats.ForcedAdvances
			seen := len(col.Events())
			s.onControl(3, c.tok.Encode())
			handled := false
			for _, e := range col.Events()[seen:] {
				if e.Proc == 0 && (e.Type == obs.EvTokenPass || e.Type == obs.EvTokenHold) {
					handled = true
				}
			}
			switch c.want {
			case past:
				if handled {
					t.Error("a past token was passed on")
				}
				if got := wedgeDeadline(s); got != deadline {
					t.Errorf("a past token moved the wedge deadline %v -> %v", deadline, got)
				}
				if s.rec.gen != gen || s.rec.origin != origin || s.Epoch() != epoch ||
					s.SendEpoch() != sendEpoch || s.stats.ForcedAdvances != forced {
					t.Error("a past token changed the member's state")
				}
			case future:
				if got := s.stats.ForcedAdvances - forced; got != 1 {
					t.Errorf("%d forced advances, want exactly 1", got)
				}
				fallthrough
			case current:
				if !handled {
					t.Error("the token was not handled")
				}
				if wedgeDeadline(s) == deadline {
					t.Error("the sighting did not re-arm the wedge timer")
				}
			}
			if c.check != nil {
				c.check(t, s)
			}
		})
	}
}

// wedgeDeadline is when s's wedge timer fires next.
func wedgeDeadline(s *Switch) time.Duration {
	return s.rec.timer.(interface{ When() time.Duration }).When()
}

func wantEpochs(t *testing.T, s *Switch, deliver, send uint64) {
	t.Helper()
	if s.Epoch() != deliver || s.SendEpoch() != send {
		t.Errorf("epochs (deliver, send) = (%d, %d), want (%d, %d)", s.Epoch(), s.SendEpoch(), deliver, send)
	}
}
