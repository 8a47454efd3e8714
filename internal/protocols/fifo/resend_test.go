package fifo

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/protocols/ptest"
	"repro/internal/simnet"
)

// TestLossFreeTrafficArmsNoResend: on a loss-free network no stream ever
// has a gap, so the resend tick is never armed. Once the traffic is
// acked, a second of virtual time executes the ack and heartbeat ticks
// and nothing else.
func TestLossFreeTrafficArmsNoResend(t *testing.T) {
	const n = 4
	cfg := simnet.Config{Nodes: n, PropDelay: time.Millisecond}
	var layers []*Layer
	c, err := ptest.New(1, cfg, n, func(proto.Env) []proto.Layer {
		l := New(Config{})
		layers = append(layers, l)
		return []proto.Layer{l}
	})
	if err != nil {
		t.Fatal(err)
	}
	for ms := 10; ms <= 1000; ms += 10 {
		if err := c.Cast(ids.ProcID(ms/10%n), []byte("x")); err != nil {
			t.Fatal(err)
		}
		c.Run(time.Duration(ms) * time.Millisecond)
	}
	c.Run(1500 * time.Millisecond)
	if got := c.Bodies(0); len(got) != 100 {
		t.Fatalf("member 0 delivered %d, want 100", len(got))
	}
	for p, l := range layers {
		if l.resend != nil {
			t.Errorf("member %d armed the resend tick on a loss-free network", p)
		}
	}
	before := c.Sim.Executed()
	c.Run(2500 * time.Millisecond)
	want := uint64(n * (time.Second/ackInterval + time.Second/heartbeatInterval))
	if got := c.Sim.Executed() - before; got != want {
		t.Errorf("an idle second executed %d events, want %d: %d ack and heartbeat firings per member",
			got, want, want/n)
	}
}

// nackDropper is a pass-through layer under a fifo instance that drops
// the first NACK the instance sends and records when each was sent.
type nackDropper struct {
	proto.Down
	env  proto.Env
	up   proto.Up
	sent []time.Duration
}

func (d *nackDropper) Init(env proto.Env, down proto.Down, up proto.Up) error {
	d.env, d.Down, d.up = env, down, up
	return nil
}

func (d *nackDropper) Send(dst ids.ProcID, pkt []byte) error {
	if len(pkt) > 0 && pkt[0] == kindNack {
		d.sent = append(d.sent, d.env.Now())
		if len(d.sent) == 1 {
			return nil
		}
	}
	return d.Down.Send(dst, pkt)
}

func (d *nackDropper) Recv(src ids.ProcID, pkt []byte) { d.up.Deliver(src, pkt) }
func (d *nackDropper) Stop()                           {}

// TestLostNackIsRetriedOnTheGrid: a gap's first NACK is lost. The resend
// tick it armed NACKs again at its first grid instant, the gap is
// repaired, and the tick then goes idle.
func TestLostNackIsRetriedOnTheGrid(t *testing.T) {
	cfg := simnet.Config{Nodes: 2, PropDelay: time.Millisecond}
	var layers []*Layer
	var drops []*nackDropper
	c, err := ptest.New(1, cfg, 2, func(proto.Env) []proto.Layer {
		l, d := New(Config{}), &nackDropper{}
		layers, drops = append(layers, l), append(drops, d)
		return []proto.Layer{l, d}
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Net.Block(0, 1)
	if err := c.Cast(0, []byte("m0")); err != nil {
		t.Fatal(err)
	}
	c.Run(5 * time.Millisecond) // m0 never reaches member 1
	c.Net.Unblock(0, 1)
	if err := c.Cast(0, []byte("m1")); err != nil {
		t.Fatal(err)
	}
	c.Run(200 * time.Millisecond)
	if got := c.Bodies(1); !reflect.DeepEqual(got, []string{"m0", "m1"}) {
		t.Fatalf("member 1 delivered %v, want [m0 m1]", got)
	}
	nacks := drops[1].sent
	if len(nacks) != 2 || nacks[0] >= resendInterval || nacks[1] != resendInterval {
		t.Errorf("member 1 NACKed at %v; want the lost NACK before %v and its retry at %v",
			nacks, resendInterval, resendInterval)
	}
	if layers[1].resend == nil || layers[1].resend.Active() {
		t.Errorf("the resend tick is armed with no gap open (handle %v)", layers[1].resend)
	}
}

// simEnv is a FakeEnv whose clock and timers are a simulator's.
type simEnv struct {
	*ptest.FakeEnv
	sim *des.Sim
}

func (e simEnv) Now() time.Duration                           { return e.sim.Now() }
func (e simEnv) After(d time.Duration, fn func()) proto.Timer { return e.sim.After(d, fn) }

// TestResendArmAllocs: once warm, opening a gap (its NACK arms the resend
// tick), a tick that NACKs it again, closing the gap and a tick that finds
// none allocate nothing: the arm re-arms the one handle.
func TestResendArmAllocs(t *testing.T) {
	sim := des.New(1)
	l := New(Config{})
	down := &nackLog{}
	env := simEnv{ptest.NewFakeEnv(0, 3), sim}
	if err := l.Init(env, down, proto.UpFunc(func(ids.ProcID, []byte) {})); err != nil {
		t.Fatal(err)
	}
	var ahead, missing []byte
	var seq uint64
	var errs []string
	got := testing.AllocsPerRun(100, func() {
		down.seqs = down.seqs[:0]
		ahead = appendData(ahead[:0], kindCast, seq+1, []byte("x"))
		l.Recv(1, ahead) // a gap at seq
		sim.RunUntil(sim.Now() + resendInterval)
		missing = appendData(missing[:0], kindCast, seq, []byte("x"))
		l.Recv(1, missing)
		sim.RunUntil(sim.Now() + resendInterval)
		if len(down.seqs) != 2 || down.seqs[0] != seq || down.seqs[1] != seq || l.resend.Active() {
			errs = append(errs, fmt.Sprintf("gap at %d: NACKed %v, tick armed %v", seq, down.seqs, l.resend.Active()))
		}
		seq += 2
	})
	if got != 0 {
		t.Errorf("a gap opened, retried and closed allocates %v, want 0", got)
	}
	if len(errs) > 0 {
		t.Errorf("want each gap NACKed on arrival and once by the tick, then the tick idle: %v", errs[0])
	}
}
