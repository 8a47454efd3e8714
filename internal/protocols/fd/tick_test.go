package fd

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/protocols/ptest"
	"repro/internal/runtime/simenv"
	"repro/internal/simnet"
)

// The detector beats and checks on one timer. These tests pin what that
// timer must keep from the two it replaced: the order of a beat and the
// check of the same interval, Stop from inside a callback, and the
// whole heartbeat and suspicion sequence of a group.

// logDown records every heartbeat a detector casts, then sends it.
type logDown struct {
	proto.Down
	log  *[]string
	sim  *des.Sim
	self ids.ProcID
}

func (d logDown) Cast(p []byte) error {
	*d.log = append(*d.log, fmt.Sprintf("%v p%d beat", d.sim.Now(), d.self))
	return d.Down.Cast(p)
}

// group starts an n-member detector group on a simulated network.
// Every beat, suspicion, restoration and received heartbeat is appended
// to the returned log, stamped with the virtual time and the member.
// With twoTimers set each detector runs the beat and the check on two
// timers of the same interval, armed back to back — the reference the
// one timer must reproduce.
func group(t *testing.T, n int, twoTimers bool, onSuspect func(self, p ids.ProcID)) (*des.Sim, *simnet.Network, []*Detector, *[]string) {
	t.Helper()
	sim := des.New(1)
	net, err := simnet.New(sim, simnet.Config{Nodes: n, PropDelay: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	g, err := simenv.NewGroup(sim, net, n)
	if err != nil {
		t.Fatal(err)
	}
	log := new([]string)
	var dets []*Detector
	for _, node := range g.Nodes() {
		self := node.Self()
		note := func(what string, p ids.ProcID) {
			*log = append(*log, fmt.Sprintf("%v p%d %s p%d", sim.Now(), self, what, p))
		}
		d := New(Config{
			Interval: 10 * time.Millisecond,
			OnSuspect: func(p ids.ProcID) {
				note("suspect", p)
				if onSuspect != nil {
					onSuspect(self, p)
				}
			},
			OnRestore:   func(p ids.ProcID) { note("restore", p) },
			OnHeartbeat: func(p ids.ProcID) { note("heard", p) },
		})
		if err := d.Init(node, logDown{node.Transport(), log, sim, self}); err != nil {
			t.Fatal(err)
		}
		if twoTimers {
			d.timer.Stop()
			for _, fn := range []func(){d.beat, d.check} {
				var tm proto.Timer
				tm = node.After(d.cfg.Interval, func() {
					if d.stopped {
						return
					}
					fn()
					if !d.stopped {
						tm.Reset(d.cfg.Interval)
					}
				})
			}
		}
		if err := node.BindStack(d.Recv); err != nil {
			t.Fatal(err)
		}
		dets = append(dets, d)
	}
	return sim, net, dets, log
}

// TestTickBeatsThenChecks: a suspicion raised at an interval boundary
// comes after that member's beat of the same instant, and a member beats
// once per interval.
func TestTickBeatsThenChecks(t *testing.T) {
	var suspectedAt time.Duration
	var sim *des.Sim
	sim, net, dets, log := group(t, 2, false, func(self, p ids.ProcID) {
		if self == 0 {
			suspectedAt = sim.Now()
		}
	})
	net.Crash(1)
	dets[1].Stop()
	sim.RunUntil(200 * time.Millisecond)
	if suspectedAt == 0 {
		t.Fatal("p0 never suspected the crashed p1")
	}
	beat := fmt.Sprintf("%v p0 beat", suspectedAt)
	suspect := fmt.Sprintf("%v p0 suspect p1", suspectedAt)
	bi, si := -1, -1
	beats := 0
	for i, e := range *log {
		switch e {
		case beat:
			bi = i
		case suspect:
			si = i
		}
		if strings.HasSuffix(e, " p0 beat") {
			beats++
		}
	}
	if bi < 0 || si < bi {
		t.Fatalf("at %v: beat at log index %d, suspicion at %d; want the beat first\n%v", suspectedAt, bi, si, *log)
	}
	if beats != 20 {
		t.Fatalf("p0 beat %d times in 200ms at a 10ms interval, want 20", beats)
	}
}

// TestStopFromOnSuspect: a Stop called from inside the check's
// OnSuspect halts beating and checking both, and leaves no timer armed.
func TestStopFromOnSuspect(t *testing.T) {
	var sim *des.Sim
	var dets []*Detector
	armed := true
	sim, net, dets, log := group(t, 2, false, func(self, p ids.ProcID) {
		dets[self].Stop()
		// Runs right after the tick that called OnSuspect returns.
		sim.Schedule(sim.Now(), func() { armed = dets[self].timer.Active() })
	})
	net.Crash(1)
	dets[1].Stop()
	sim.RunUntil(time.Second)
	if !dets[0].stopped {
		t.Fatal("p0 never suspected p1")
	}
	if armed {
		t.Fatal("the tick re-armed its timer after OnSuspect stopped the detector")
	}
	n := len(*log)
	if err := sim.Run(1000); err != nil {
		t.Fatalf("a timer kept re-arming after Stop: %v", err)
	}
	if len(*log) != n {
		t.Fatalf("the detector acted after Stop: %v", (*log)[n:])
	}
}

// TestTickMatchesTwoTimers runs one scenario — a crash, a one-way
// partition that heals — on the one-timer detector and on the two-timer
// reference, and requires the same log, entry for entry.
func TestTickMatchesTwoTimers(t *testing.T) {
	run := func(twoTimers bool) []string {
		sim, net, _, log := group(t, 4, twoTimers, nil)
		sim.RunUntil(100 * time.Millisecond)
		net.Crash(2)
		sim.RunUntil(150 * time.Millisecond)
		net.Block(1, 0)
		sim.RunUntil(400 * time.Millisecond)
		net.Unblock(1, 0)
		sim.RunUntil(600 * time.Millisecond)
		return *log
	}
	one, two := run(false), run(true)
	if len(one) != len(two) {
		t.Fatalf("one timer logged %d entries, two timers %d", len(one), len(two))
	}
	for i := range one {
		if one[i] != two[i] {
			t.Fatalf("entry %d: one timer %q, two timers %q", i, one[i], two[i])
		}
	}
	for _, want := range []string{"suspect p2", "suspect p1", "restore p1"} {
		found := false
		for _, e := range one {
			if strings.HasSuffix(e, want) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("the scenario never logged %q", want)
		}
	}
}

// BenchmarkDetectorInterval runs a healthy 10-member group one Interval
// per iteration: every member beats, hears the other nine and checks
// them. It reports the simulator events an interval costs.
func BenchmarkDetectorInterval(b *testing.B) {
	const n = 10
	sim := des.New(1)
	net, err := simnet.New(sim, simnet.Config{Nodes: n, PropDelay: 200 * time.Microsecond})
	if err != nil {
		b.Fatal(err)
	}
	g, err := simenv.NewGroup(sim, net, n)
	if err != nil {
		b.Fatal(err)
	}
	for _, node := range g.Nodes() {
		d := New(Config{Interval: 10 * time.Millisecond})
		if err := d.Init(node, node.Transport()); err != nil {
			b.Fatal(err)
		}
		if err := node.BindStack(d.Recv); err != nil {
			b.Fatal(err)
		}
	}
	sim.RunUntil(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	start := sim.Executed()
	for i := 0; i < b.N; i++ {
		sim.RunUntil(sim.Now() + 10*time.Millisecond)
	}
	b.ReportMetric(float64(sim.Executed()-start)/float64(b.N), "events/interval")
}

// nopDown discards what it is handed.
type nopDown struct{}

func (nopDown) Cast([]byte) error             { return nil }
func (nopDown) Send(ids.ProcID, []byte) error { return nil }

// TestBeatAllocs: a heartbeat costs the detector no allocation — every
// beat casts the one shared payload.
func TestBeatAllocs(t *testing.T) {
	d := New(Config{Interval: 10 * time.Millisecond})
	if err := d.Init(ptest.NewFakeEnv(0, 3), nopDown{}); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(1000, d.beat); got != 0 {
		t.Errorf("a beat allocates %v, want 0", got)
	}
}
