package viewswitch_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core/switching"
	"repro/internal/core/viewswitch"
	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/property"
	"repro/internal/proto"
	"repro/internal/protocols/fifo"
	"repro/internal/protocols/ptest"
	"repro/internal/protocols/seqorder"
	"repro/internal/protocols/tokenorder"
	"repro/internal/runtime/simenv"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// member is one process under test.
type member struct {
	node      *simenv.Node
	mgr       *viewswitch.Manager
	delivered []ptest.Delivery
}

// cluster is a simulated group of view-switch managers.
type cluster struct {
	sim     *des.Sim
	net     *simnet.Network
	members []*member
	sent    []ptest.SentMsg
}

func orderedPair() []switching.ProtocolFactory {
	return []switching.ProtocolFactory{
		func(proto.Env) []proto.Layer {
			return []proto.Layer{seqorder.New(0), fifo.New(fifo.Config{})}
		},
		func(proto.Env) []proto.Layer {
			return []proto.Layer{tokenorder.New(tokenorder.Config{HoldDelay: time.Millisecond}), fifo.New(fifo.Config{})}
		},
	}
}

func newCluster(t *testing.T, seed int64, netCfg simnet.Config, n int, cfg viewswitch.Config) *cluster {
	t.Helper()
	if cfg.Protocols == nil {
		cfg.Protocols = orderedPair()
	}
	sim := des.New(seed)
	net, err := simnet.New(sim, netCfg)
	if err != nil {
		t.Fatal(err)
	}
	group, err := simenv.NewGroup(sim, net, n)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{sim: sim, net: net}
	for _, node := range group.Nodes() {
		m := &member{node: node}
		app := proto.UpFunc(func(src ids.ProcID, payload []byte) {
			buf := make([]byte, len(payload))
			copy(buf, payload)
			m.delivered = append(m.delivered, ptest.Delivery{At: sim.Now(), Src: src, Payload: buf})
		})
		mgr, err := viewswitch.New(node, app, node.Transport(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.mgr = mgr
		if err := node.BindStack(mgr.Recv); err != nil {
			t.Fatal(err)
		}
		c.members = append(c.members, m)
	}
	return c
}

func (c *cluster) cast(t *testing.T, p ids.ProcID, seq uint32, body string) {
	t.Helper()
	m := proto.AppMsg{ID: proto.MakeMsgID(p, seq), Sender: p, Body: []byte(body)}
	c.sent = append(c.sent, ptest.SentMsg{At: c.sim.Now(), Msg: m})
	if err := c.members[p].mgr.Cast(m.Encode()); err != nil {
		t.Errorf("cast %q: %v", body, err)
	}
}

// viewAppMsg builds the application-level view message.
func viewAppMsg(seq uint32, members ...ids.ProcID) proto.AppMsg {
	return proto.AppMsg{
		ID:     proto.MakeMsgID(0, seq),
		Sender: 0,
		IsView: true,
		View:   members,
	}
}

func (c *cluster) requestView(t *testing.T, members []ids.ProcID, seq uint32) {
	t.Helper()
	vm := viewAppMsg(seq, members...)
	c.sent = append(c.sent, ptest.SentMsg{At: c.sim.Now(), Msg: vm})
	if err := c.members[0].mgr.RequestViewChange(members, vm.Encode()); err != nil {
		t.Errorf("request view: %v", err)
	}
}

func (c *cluster) bodies(t *testing.T, p ids.ProcID) []string {
	t.Helper()
	var out []string
	for _, d := range c.members[p].delivered {
		m, err := proto.DecodeApp(d.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if m.IsView {
			out = append(out, fmt.Sprintf("<view %v>", m.View))
			continue
		}
		out = append(out, string(m.Body))
	}
	return out
}

func (c *cluster) trace(t *testing.T) trace.Trace {
	t.Helper()
	adapter := &ptest.Cluster{Sim: c.sim}
	for _, m := range c.members {
		adapter.Members = append(adapter.Members, &ptest.Member{Node: m.node, Delivered: m.delivered})
	}
	tr, err := adapter.TraceTimed(c.sent)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func (c *cluster) stop() {
	for _, m := range c.members {
		m.mgr.Stop()
	}
}

func TestBasicViewSwitch(t *testing.T) {
	c := newCluster(t, 1, simnet.Config{Nodes: 4, PropDelay: 300 * time.Microsecond}, 4, viewswitch.Config{})
	for i := 0; i < 4; i++ {
		at := time.Duration(i+1) * 3 * time.Millisecond
		i := i
		c.sim.At(at, func() { c.cast(t, ids.ProcID(i), uint32(i), fmt.Sprintf("old-%d", i)) })
	}
	c.sim.At(20*time.Millisecond, func() { c.requestView(t, ids.Procs(4), 900) })
	for i := 0; i < 4; i++ {
		at := 100*time.Millisecond + time.Duration(i)*3*time.Millisecond
		i := i
		c.sim.At(at, func() { c.cast(t, ids.ProcID(i), uint32(10+i), fmt.Sprintf("new-%d", i)) })
	}
	c.sim.RunUntil(5 * time.Second)
	c.stop()

	ref := c.bodies(t, 0)
	if len(ref) != 9 { // 4 old + view + 4 new
		t.Fatalf("member 0 delivered %v", ref)
	}
	for p := 1; p < 4; p++ {
		got := c.bodies(t, ids.ProcID(p))
		if len(got) != len(ref) {
			t.Fatalf("member %d delivered %d, member 0 %d", p, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("member %d disagrees at %d: %q vs %q", p, i, got[i], ref[i])
			}
		}
	}
	// The view message must sit exactly between old and new traffic.
	sawView := false
	for _, b := range ref {
		switch {
		case b == "<view [p0 p1 p2 p3]>":
			sawView = true
		case !sawView && len(b) > 3 && b[:3] == "new":
			t.Fatalf("new-epoch message before the view: %v", ref)
		case sawView && len(b) > 3 && b[:3] == "old":
			t.Fatalf("old-epoch message after the view: %v", ref)
		}
	}
	if !sawView {
		t.Fatalf("view message missing: %v", ref)
	}
	for p, m := range c.members {
		if m.mgr.Epoch() != 1 {
			t.Fatalf("member %d epoch %d", p, m.mgr.Epoch())
		}
		if m.mgr.Stats().ViewsInstalled != 1 {
			t.Fatalf("member %d installed %d views", p, m.mgr.Stats().ViewsInstalled)
		}
	}
	// And the trace satisfies Virtual Synchrony — the §8 headline.
	vs := property.VirtualSynchrony{InitialView: ids.Procs(4)}
	if !vs.Holds(c.trace(t)) {
		t.Error("Virtual Synchrony violated by a view switch")
	}
}

func TestSendersBlockDuringFlushThenDrain(t *testing.T) {
	c := newCluster(t, 2, simnet.Config{Nodes: 3, PropDelay: time.Millisecond}, 3, viewswitch.Config{})
	c.sim.At(time.Millisecond, func() { c.requestView(t, ids.Procs(3), 900) })
	// Cast while the flush is in flight: the manager must queue it.
	var queuedAt ids.ProcID = ids.Nobody
	var poll func()
	poll = func() {
		for p, m := range c.members {
			if m.mgr.Flushing() {
				queuedAt = ids.ProcID(p)
				c.cast(t, queuedAt, 1, "queued-during-flush")
				return
			}
		}
		c.sim.After(200*time.Microsecond, poll)
	}
	c.sim.At(1200*time.Microsecond, func() { poll() })
	c.sim.RunUntil(5 * time.Second)
	c.stop()
	if queuedAt == ids.Nobody {
		t.Fatal("never observed a flushing member")
	}
	if c.members[queuedAt].mgr.Stats().BlockedCasts == 0 {
		t.Error("cast during flush was not queued")
	}
	// The queued message must still be delivered, after the view.
	for p := 0; p < 3; p++ {
		got := c.bodies(t, ids.ProcID(p))
		if len(got) != 2 || got[0] != "<view [p0 p1 p2]>" || got[1] != "queued-during-flush" {
			t.Fatalf("member %d delivered %v", p, got)
		}
	}
}

func TestMembershipExclusion(t *testing.T) {
	c := newCluster(t, 3, simnet.Config{Nodes: 3, PropDelay: 300 * time.Microsecond}, 3, viewswitch.Config{})
	c.sim.At(time.Millisecond, func() { c.requestView(t, []ids.ProcID{0, 1}, 900) })
	c.sim.RunUntil(2 * time.Second)
	// Member 2 is out of the view: its casts are rejected locally.
	if err := c.members[2].mgr.Cast(viewAppMsg(1).Encode()); err != viewswitch.ErrNotInView {
		t.Errorf("excluded member's cast returned %v, want ErrNotInView", err)
	}
	if c.members[2].mgr.InView(2) {
		t.Error("member 2 believes it is still in the view")
	}
	if got := c.members[0].mgr.View(); len(got) != 2 {
		t.Errorf("view = %v", got)
	}
	// Survivors keep multicasting normally.
	c.cast(t, 0, 2, "survivors-only")
	c.sim.RunUntil(4 * time.Second)
	c.stop()
	for p := 0; p < 2; p++ {
		got := c.bodies(t, ids.ProcID(p))
		if len(got) != 2 || got[1] != "survivors-only" {
			t.Fatalf("member %d delivered %v", p, got)
		}
	}
	vs := property.VirtualSynchrony{InitialView: ids.Procs(3)}
	if !vs.Holds(c.trace(t)) {
		t.Error("Virtual Synchrony violated")
	}
}

func TestSingleProtocolMembershipChange(t *testing.T) {
	single := []switching.ProtocolFactory{
		func(proto.Env) []proto.Layer {
			return []proto.Layer{seqorder.New(0), fifo.New(fifo.Config{})}
		},
	}
	c := newCluster(t, 4, simnet.Config{Nodes: 3, PropDelay: 300 * time.Microsecond}, 3,
		viewswitch.Config{Protocols: single})
	c.sim.At(time.Millisecond, func() { c.cast(t, 1, 1, "before") })
	c.sim.At(10*time.Millisecond, func() { c.requestView(t, []ids.ProcID{0, 1}, 900) })
	c.sim.At(200*time.Millisecond, func() { c.cast(t, 1, 2, "after") })
	c.sim.RunUntil(5 * time.Second)
	c.stop()
	got := c.bodies(t, 0)
	want := []string{"before", "<view [p0 p1]>", "after"}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
	}
}

func TestRandomizedVSPreservation(t *testing.T) {
	for seed := int64(60); seed < 64; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			netCfg := simnet.Config{
				Nodes:     4,
				PropDelay: 300 * time.Microsecond,
			}
			c := newCluster(t, seed, netCfg, 4, viewswitch.Config{})
			if err := c.net.SetFaults(0.05, 0, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			rng := c.sim.Rand()
			total := 12 + rng.Intn(8)
			for i := 0; i < total; i++ {
				at := time.Duration(rng.Intn(150)) * time.Millisecond
				i := i
				c.sim.At(at, func() {
					p := ids.ProcID(i % 4)
					if !c.members[p].mgr.InView(p) {
						return
					}
					m := proto.AppMsg{ID: proto.MakeMsgID(p, uint32(i)), Sender: p, Body: []byte(fmt.Sprintf("m%02d", i))}
					c.sent = append(c.sent, ptest.SentMsg{At: c.sim.Now(), Msg: m})
					if err := c.members[p].mgr.Cast(m.Encode()); err != nil && err != viewswitch.ErrNotInView {
						t.Error(err)
					}
				})
			}
			c.sim.At(40*time.Millisecond, func() { c.requestView(t, ids.Procs(4), 900) })
			c.sim.At(100*time.Millisecond, func() { c.requestView(t, []ids.ProcID{0, 1, 2}, 901) })
			c.sim.RunUntil(60 * time.Second)
			c.stop()
			vs := property.VirtualSynchrony{InitialView: ids.Procs(4)}
			tr := c.trace(t)
			if !vs.Holds(tr) {
				t.Errorf("Virtual Synchrony violated:\n%v", tr)
			}
			if !(property.TotalOrder{}).Holds(tr) {
				t.Error("Total Order violated")
			}
		})
	}
}

func TestCallbacksAndRecords(t *testing.T) {
	c := newCluster(t, 8, simnet.Config{Nodes: 3, PropDelay: 300 * time.Microsecond}, 3, viewswitch.Config{})
	c.sim.At(time.Millisecond, func() { c.requestView(t, ids.Procs(3), 900) })
	c.sim.RunUntil(2 * time.Second)
	c.stop()
	for p, m := range c.members {
		if st := m.mgr.Stats(); st.ViewsInstalled != 1 || m.mgr.Epoch() != 1 || len(m.mgr.View()) != 3 {
			t.Errorf("member %d: %d views installed, epoch %d, view %v; want 1, 1, 3 members",
				p, st.ViewsInstalled, m.mgr.Epoch(), m.mgr.View())
		}
	}
	recs := c.members[0].mgr.Records()
	if len(recs) != 1 || recs[0].Epoch != 0 || recs[0].Duration() <= 0 {
		t.Errorf("coordinator records = %+v", recs)
	}
	if len(c.members[1].mgr.Records()) != 0 {
		t.Error("non-coordinator has records")
	}
	if c.members[0].mgr.Detector() != nil {
		t.Error("detector present without config")
	}
}

func TestRequestValidation(t *testing.T) {
	c := newCluster(t, 5, simnet.Config{Nodes: 3}, 3, viewswitch.Config{})
	defer c.stop()
	if err := c.members[1].mgr.RequestViewChange(ids.Procs(3), nil); err != viewswitch.ErrNotCoordinator {
		t.Errorf("non-coordinator got %v", err)
	}
	if err := c.members[0].mgr.RequestViewChange(nil, nil); err == nil {
		t.Error("empty view accepted")
	}
	if err := c.members[0].mgr.RequestViewChange([]ids.ProcID{9}, nil); err == nil {
		t.Error("non-member view accepted")
	}
	if err := c.members[0].mgr.RequestViewChange(ids.Procs(3), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.members[0].mgr.RequestViewChange(ids.Procs(3), nil); err != viewswitch.ErrChangeInProgress {
		t.Errorf("concurrent request got %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	sim := des.New(1)
	net, err := simnet.New(sim, simnet.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	group, err := simenv.NewGroup(sim, net, 2)
	if err != nil {
		t.Fatal(err)
	}
	node := group.Node(0)
	app := proto.UpFunc(func(ids.ProcID, []byte) {})
	if _, err := viewswitch.New(nil, app, node.Transport(), viewswitch.Config{}); err == nil {
		t.Error("nil env accepted")
	}
	if _, err := viewswitch.New(node, app, node.Transport(), viewswitch.Config{}); err == nil {
		t.Error("no protocols accepted")
	}
	evictNoDet := viewswitch.Config{Protocols: orderedPair(), AutoEvict: true}
	if _, err := viewswitch.New(node, app, node.Transport(), evictNoDet); err == nil {
		t.Error("AutoEvict without a detector accepted")
	}
}

func TestCastAfterStop(t *testing.T) {
	c := newCluster(t, 6, simnet.Config{Nodes: 2}, 2, viewswitch.Config{})
	c.stop()
	if err := c.members[0].mgr.Cast([]byte("x")); err == nil {
		t.Error("cast after stop accepted")
	}
}

func TestGarbageControlIgnored(t *testing.T) {
	c := newCluster(t, 7, simnet.Config{Nodes: 2}, 2, viewswitch.Config{})
	defer c.stop()
	// Inject junk onto the control path via the public Recv.
	c.members[0].mgr.Recv(1, nil)
	c.members[0].mgr.Recv(1, []byte{0})
	c.sim.RunUntil(100 * time.Millisecond)
	if c.members[0].mgr.Epoch() != 0 {
		t.Error("garbage advanced the epoch")
	}
}
