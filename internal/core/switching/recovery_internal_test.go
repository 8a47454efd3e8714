package switching

import (
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/protocols/fifo"
	"repro/internal/runtime/simenv"
	"repro/internal/simnet"
)

// TestBackoffTimeoutClamp pins the wedge-timeout escalation clamp: the
// doubling backoff saturates at maxRecoveryBackoff instead of
// overflowing time.Duration at large strike counts. (The regression:
// a member wedged behind an unreachable ring doubles its timeout on
// every strike; base<<shift wraps negative past shift ~33 at
// millisecond bases, and a negative timeout re-arms the wedge timer in
// the past — a hot loop of regenerations.)
func TestBackoffTimeoutClamp(t *testing.T) {
	cases := []struct {
		base  time.Duration
		shift int
		want  time.Duration
	}{
		{15 * time.Millisecond, 0, 15 * time.Millisecond},
		{15 * time.Millisecond, 2, 60 * time.Millisecond},
		{15 * time.Millisecond, 11, 30720 * time.Millisecond},
		{15 * time.Millisecond, 12, maxRecoveryBackoff},
		{15 * time.Millisecond, 40, maxRecoveryBackoff},
		{15 * time.Millisecond, 63, maxRecoveryBackoff},
		{15 * time.Millisecond, 1 << 20, maxRecoveryBackoff},
		{time.Minute, 1, maxRecoveryBackoff},
		{2 * time.Minute, 0, maxRecoveryBackoff},
	}
	for _, c := range cases {
		got := backoffTimeout(c.base, c.shift)
		if got != c.want {
			t.Errorf("backoffTimeout(%v, %d) = %v, want %v", c.base, c.shift, got, c.want)
		}
		if got <= 0 {
			t.Errorf("backoffTimeout(%v, %d) = %v — overflowed", c.base, c.shift, got)
		}
	}
}

// quietGroup builds a four-member group on Hardened whose token has been
// taken out of circulation before its first hop, with a collector on
// every member. A test then builds the members' round state by hand and
// hands a token to onControl: that token is the only one in the group.
func quietGroup(t *testing.T, col *obs.Collector) (*des.Sim, *simnet.Network, []*Switch) {
	t.Helper()
	sim := des.New(1)
	net, err := simnet.New(sim, simnet.Config{Nodes: 4, PropDelay: 300 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	group, err := simenv.NewGroup(sim, net, 4)
	if err != nil {
		t.Fatal(err)
	}
	layers := func(proto.Env) []proto.Layer { return []proto.Layer{fifo.New(fifo.Config{})} }
	cfg := Hardened([]byte("k"), layers, layers)
	cfg.Recorder = col
	var sw []*Switch
	for _, node := range group.Nodes() {
		s, err := New(node, proto.UpFunc(func(ids.ProcID, []byte) {}), node.Transport(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.BindStack(s.Recv); err != nil {
			t.Fatal(err)
		}
		sw = append(sw, s)
	}
	sw[0].held.timer.Stop()
	return sim, net, sw
}

// TestStaleLapDies: a PREPARE whose initiator is cut off must not
// circulate among the other members for ever. Were each hop to apply
// it, pass it on and re-arm its wedge timer, no member would ever time
// out and the member still mid-switch would stay there (a livelock). A
// member that has already passed a step of a lineage on drops the same
// step when it comes round again; the wedge timer then fires and
// regeneration converges the group.
func TestStaleLapDies(t *testing.T) {
	col := obs.NewCollector()
	sim, net, sw := quietGroup(t, col)
	live := []int{0, 1, 3}
	// p2 initiated the switch closing epoch 0 and is gone. p0 and p1
	// completed the epoch; p3 is still mid-switch in it.
	net.Crash(2)
	for _, p := range live {
		sw[p].setSendEpoch(1)
	}
	sw[0].deliverEpoch, sw[1].deliverEpoch = 1, 1
	for _, p := range live {
		sw[p].rec.det.ForceSuspect(2)
	}
	lap := Token{Mode: ModePrepare, Epoch: 0, Initiator: 2, Vector: make([]uint64, 4)}
	sw[0].onControl(3, lap.Encode())

	ti := sw[0].cfg.TokenInterval
	bound := 10 * ti
	sim.RunUntil(bound)
	for _, p := range live {
		s := sw[p]
		if s.Epoch() != 1 || s.Switching() {
			t.Errorf("p%d after %v (10 token intervals): epoch %d, mid-switch %v; want epoch 1, not switching",
				p, bound, s.Epoch(), s.Switching())
		}
	}
	laps := map[ids.ProcID]int{}
	for _, e := range col.Events() {
		if e.Type == obs.EvTokenPass && Mode(e.Mode) == ModePrepare && e.Gen == 0 {
			laps[e.Proc]++
		}
	}
	for _, p := range live {
		if n := laps[ids.ProcID(p)]; n > 1 {
			t.Errorf("p%d passed the initiator-less PREPARE on %d times, want once", p, n)
		}
	}
}
