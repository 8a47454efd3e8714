package simenv

import (
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/simnet"
)

func newGroup(t *testing.T, n int) (*des.Sim, *Group) {
	t.Helper()
	sim := des.New(1)
	net, err := simnet.New(sim, simnet.Config{Nodes: n, PropDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGroup(sim, net, n)
	if err != nil {
		t.Fatal(err)
	}
	return sim, g
}

func TestNewGroupValidation(t *testing.T) {
	sim := des.New(1)
	net, err := simnet.New(sim, simnet.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGroup(sim, net, 3); err == nil {
		t.Error("NewGroup accepted group larger than network")
	}
	if _, err := NewGroup(sim, net, 0); err == nil {
		t.Error("NewGroup accepted empty group")
	}
}

func TestEnvBasics(t *testing.T) {
	sim, g := newGroup(t, 3)
	n := g.Node(1)
	if n.Self() != 1 {
		t.Errorf("Self = %v", n.Self())
	}
	if got := n.Members(); len(got) != 3 {
		t.Errorf("Members = %v", got)
	}
	if n.Ring().Size() != 3 {
		t.Errorf("Ring size = %d", n.Ring().Size())
	}
	if n.Rand() == nil {
		t.Error("Rand is nil")
	}
	fired := false
	n.After(5*time.Millisecond, func() { fired = true })
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("After callback did not fire")
	}
	if n.Now() != 5*time.Millisecond {
		t.Errorf("Now = %v", n.Now())
	}
	if len(g.Nodes()) != 3 {
		t.Error("Nodes() wrong length")
	}
	if g.Sim() != sim || g.Net() == nil {
		t.Error("accessors broken")
	}
}

func TestTransportCastReachesAll(t *testing.T) {
	sim, g := newGroup(t, 3)
	got := map[ids.ProcID][]byte{}
	for _, n := range g.Nodes() {
		n := n
		if err := n.BindStack(func(src ids.ProcID, b []byte) {
			got[n.Self()] = b
			if src != 0 {
				t.Errorf("src = %v, want p0", src)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Node(0).Transport().Cast([]byte("m")); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("cast reached %d nodes, want 3 (incl. sender)", len(got))
	}
}

func TestTransportSendIsPointToPoint(t *testing.T) {
	sim, g := newGroup(t, 3)
	counts := map[ids.ProcID]int{}
	for _, n := range g.Nodes() {
		n := n
		if err := n.BindStack(func(ids.ProcID, []byte) { counts[n.Self()]++ }); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Node(0).Transport().Send(2, []byte("m")); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if counts[2] != 1 || counts[0] != 0 || counts[1] != 0 {
		t.Errorf("counts = %v, want only p2", counts)
	}
}

// TestTimerReset re-arms a node timer from each of its states: pending
// (the earlier arm must not fire), fired, and stopped.
func TestTimerReset(t *testing.T) {
	sim, g := newGroup(t, 1)
	n := g.Node(0)
	var fired []time.Duration
	tm := n.After(10*time.Millisecond, func() { fired = append(fired, n.Now()) })

	tm.Reset(25 * time.Millisecond) // pending
	sim.RunUntil(20 * time.Millisecond)
	if len(fired) != 0 || !tm.Active() {
		t.Fatalf("after re-arming a pending timer: fired=%v active=%v", fired, tm.Active())
	}
	sim.RunUntil(30 * time.Millisecond)
	if len(fired) != 1 || fired[0] != 25*time.Millisecond || tm.Active() {
		t.Fatalf("fired=%v active=%v, want one firing at 25ms", fired, tm.Active())
	}

	tm.Reset(10 * time.Millisecond) // fired
	sim.RunUntil(50 * time.Millisecond)
	if len(fired) != 2 || fired[1] != 40*time.Millisecond {
		t.Fatalf("fired=%v, want a second firing at 40ms", fired)
	}

	tm.Reset(10 * time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop of a re-armed timer reported false")
	}
	tm.Reset(20 * time.Millisecond) // stopped
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 || fired[2] != 70*time.Millisecond {
		t.Fatalf("fired=%v, want a third firing at 70ms", fired)
	}
}

// TestRearm: proto.Rearm reuses an idle handle, and while the handle is
// still pending behaves exactly like a second After — both arms fire.
func TestRearm(t *testing.T) {
	sim, g := newGroup(t, 1)
	n := g.Node(0)
	count := 0
	fn := func() { count++ }
	first := proto.Rearm(n, nil, time.Millisecond, fn)
	if first == nil || !first.Active() {
		t.Fatal("Rearm(nil) did not arm a timer")
	}
	second := proto.Rearm(n, first, 2*time.Millisecond, fn)
	if second == first {
		t.Fatal("Rearm reused a pending handle: the earlier arm would be lost")
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("fired %d times, want both arms", count)
	}
	if third := proto.Rearm(n, second, time.Millisecond, fn); third != second {
		t.Error("Rearm allocated a new handle for an idle timer")
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("fired %d times, want 3", count)
	}
}
