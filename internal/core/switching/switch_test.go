package switching_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core/switching"
	"repro/internal/core/switching/swtest"
	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/protocols/fifo"
	"repro/internal/protocols/seqorder"
	"repro/internal/protocols/tokenorder"
	"repro/internal/simnet"
)

// orderedPair returns the canonical two-protocol configuration used by
// the paper's experiment: sequencer-based vs token-based total order,
// each over its own reliable FIFO channel.
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

func newCluster(t *testing.T, seed int64, netCfg simnet.Config, n int, cfg switching.Config) *swtest.SwitchedCluster {
	t.Helper()
	if cfg.Protocols == nil {
		cfg.Protocols = orderedPair()
	}
	if cfg.TokenInterval == 0 {
		cfg.TokenInterval = 2 * time.Millisecond
	}
	c, err := swtest.NewSwitched(seed, netCfg, n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// assertAgreement checks that all members delivered identical sequences.
func assertAgreement(t *testing.T, c *swtest.SwitchedCluster, wantCount int) {
	t.Helper()
	ref, err := c.AppBodies(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != wantCount {
		t.Fatalf("member 0 delivered %d, want %d: %v", len(ref), wantCount, ref)
	}
	for p := 1; p < len(c.Members); p++ {
		got, err := c.AppBodies(ids.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("member %d delivered %d, member 0 delivered %d", p, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("member %d disagrees at %d: %q vs %q", p, i, got[i], ref[i])
			}
		}
	}
}

// assertEpochBoundary checks the SP guarantee of §2: every member
// delivers all old-protocol (epoch-tagged "e0") messages before any new
// ones ("e1", "e2", ...). Bodies must be tagged "e<epoch>-...".
func assertEpochBoundary(t *testing.T, c *swtest.SwitchedCluster) {
	t.Helper()
	for p := range c.Members {
		got, err := c.AppBodies(ids.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		maxEpoch := -1
		for i, b := range got {
			var e int
			if _, err := fmt.Sscanf(b, "e%d-", &e); err != nil {
				t.Fatalf("member %d: untagged body %q", p, b)
			}
			if e < maxEpoch {
				t.Fatalf("member %d delivered old-epoch %q at %d after epoch %d traffic: %v",
					p, b, i, maxEpoch, got)
			}
			if e > maxEpoch {
				maxEpoch = e
			}
		}
	}
}

// castTagged sends a body tagged with the sender's current send epoch.
func castTagged(t *testing.T, c *swtest.SwitchedCluster, p ids.ProcID, body string) {
	t.Helper()
	sw := c.Members[p].Switch
	m := proto.AppMsg{
		ID:     proto.MakeMsgID(p, uint32(c.Sim.Executed())),
		Sender: p,
		Body:   []byte(fmt.Sprintf("e%d-%s", sw.SendEpoch(), body)),
	}
	if err := sw.Cast(m.Encode()); err != nil {
		t.Fatal(err)
	}
}

func TestTokenRotatesWhenIdle(t *testing.T) {
	c := newCluster(t, 1, simnet.Config{Nodes: 4, PropDelay: 100 * time.Microsecond}, 4, switching.Config{})
	c.Run(500 * time.Millisecond)
	c.Stop()
	for p, m := range c.Members {
		st := m.Switch.Stats()
		if st.TokenPasses < 10 {
			t.Errorf("member %d passed the token only %d times in 500ms", p, st.TokenPasses)
		}
		if m.Switch.Epoch() != 0 {
			t.Errorf("member %d advanced epoch without a request", p)
		}
	}
}

func TestBasicSwitch(t *testing.T) {
	var rec *switching.Record
	cfg := switching.Config{
		OnSwitchComplete: func(r switching.Record) { rec = &r },
	}
	c := newCluster(t, 2, simnet.Config{Nodes: 5, PropDelay: 200 * time.Microsecond}, 5, cfg)
	// Phase 1: traffic on the initial protocol.
	for i := 0; i < 5; i++ {
		at := time.Duration(i) * 3 * time.Millisecond
		i := i
		c.Sim.At(at, func() { castTagged(t, c, ids.ProcID(i%5), fmt.Sprintf("pre%d", i)) })
	}
	// Phase 2: request the switch at member 2 (the "manager").
	c.Sim.At(30*time.Millisecond, func() { c.Members[2].Switch.RequestSwitch() })
	// Phase 3: traffic while and after switching.
	for i := 0; i < 5; i++ {
		at := 35*time.Millisecond + time.Duration(i)*3*time.Millisecond
		i := i
		c.Sim.At(at, func() { castTagged(t, c, ids.ProcID(i%5), fmt.Sprintf("post%d", i)) })
	}
	c.Run(2 * time.Second)
	c.Stop()

	for p, m := range c.Members {
		if m.Switch.Epoch() != 1 {
			t.Fatalf("member %d epoch = %d, want 1", p, m.Switch.Epoch())
		}
		if m.Switch.ActiveProtocol() != 1 {
			t.Fatalf("member %d active protocol = %d, want 1 (token order)", p, m.Switch.ActiveProtocol())
		}
	}
	assertAgreement(t, c, 10)
	assertEpochBoundary(t, c)
	if rec == nil {
		t.Fatal("OnSwitchComplete never fired")
	}
	if rec.Initiator != 2 || rec.Epoch != 0 {
		t.Errorf("record = %+v", *rec)
	}
	if rec.Duration() <= 0 || rec.Duration() > time.Second {
		t.Errorf("switch duration = %v", rec.Duration())
	}
}

func TestSendsNeverBlockedDuringSwitch(t *testing.T) {
	c := newCluster(t, 3, simnet.Config{Nodes: 4, PropDelay: 500 * time.Microsecond}, 4, switching.Config{})
	c.Sim.At(10*time.Millisecond, func() { c.Members[0].Switch.RequestSwitch() })
	// Flood during the switch window; every Cast must succeed.
	for i := 0; i < 30; i++ {
		at := 10*time.Millisecond + time.Duration(i)*time.Millisecond
		i := i
		c.Sim.At(at, func() { castTagged(t, c, ids.ProcID(i%4), fmt.Sprintf("m%02d", i)) })
	}
	c.Run(3 * time.Second)
	c.Stop()
	assertAgreement(t, c, 30)
	assertEpochBoundary(t, c)
}

func TestBackToBackSwitches(t *testing.T) {
	c := newCluster(t, 4, simnet.Config{Nodes: 3, PropDelay: 200 * time.Microsecond}, 3, switching.Config{})
	msg := 0
	for round := 0; round < 3; round++ {
		base := time.Duration(round) * 300 * time.Millisecond
		for i := 0; i < 4; i++ {
			at := base + time.Duration(i)*5*time.Millisecond
			m := msg
			c.Sim.At(at, func() { castTagged(t, c, ids.ProcID(m%3), fmt.Sprintf("r%dm%d", m/4, m%4)) })
			msg++
		}
		r := round
		c.Sim.At(base+100*time.Millisecond, func() { c.Members[r].Switch.RequestSwitch() })
	}
	c.Run(3 * time.Second)
	c.Stop()
	for p, m := range c.Members {
		if m.Switch.Epoch() != 3 {
			t.Fatalf("member %d epoch = %d, want 3", p, m.Switch.Epoch())
		}
	}
	assertAgreement(t, c, 12)
	assertEpochBoundary(t, c)
}

func TestSwitchUnderLossAndJitter(t *testing.T) {
	netCfg := simnet.Config{
		Nodes:     4,
		PropDelay: 300 * time.Microsecond,
	}
	c := newCluster(t, 5, netCfg, 4, switching.Config{})
	if err := c.Net.SetFaults(0.1, 0, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		at := time.Duration(i) * 4 * time.Millisecond
		i := i
		c.Sim.At(at, func() { castTagged(t, c, ids.ProcID(i%4), fmt.Sprintf("m%02d", i)) })
	}
	c.Sim.At(40*time.Millisecond, func() { c.Members[1].Switch.RequestSwitch() })
	c.Run(30 * time.Second)
	c.Stop()
	assertAgreement(t, c, 20)
	assertEpochBoundary(t, c)
	for p, m := range c.Members {
		if m.Switch.Epoch() != 1 {
			t.Fatalf("member %d epoch = %d, want 1 (switch must complete under loss)", p, m.Switch.Epoch())
		}
	}
}

func TestConcurrentSwitchRequestsSerialize(t *testing.T) {
	c := newCluster(t, 6, simnet.Config{Nodes: 5, PropDelay: 200 * time.Microsecond}, 5, switching.Config{})
	// Two members request "simultaneously"; the token serializes them.
	c.Sim.At(10*time.Millisecond, func() {
		c.Members[1].Switch.RequestSwitch()
		c.Members[3].Switch.RequestSwitch()
	})
	c.Run(3 * time.Second)
	c.Stop()
	for p, m := range c.Members {
		if m.Switch.Epoch() != 2 {
			t.Fatalf("member %d epoch = %d, want 2 (both requests honoured, in sequence)", p, m.Switch.Epoch())
		}
	}
	// Exactly one initiator per switch.
	var recs []switching.Record
	for _, m := range c.Members {
		recs = append(recs, m.Switch.Records()...)
	}
	if len(recs) != 2 {
		t.Fatalf("recorded %d switches, want 2", len(recs))
	}
	if recs[0].Initiator == recs[1].Initiator {
		t.Errorf("both switches initiated by %v", recs[0].Initiator)
	}
}

func TestNewEpochTrafficIsBuffered(t *testing.T) {
	// Token order (protocol 1 → switching to 0) has high latency, so
	// new-protocol (sequencer, fast) messages sent right after PREPARE
	// overtake draining old traffic and must be buffered.
	protos := []switching.ProtocolFactory{
		func(proto.Env) []proto.Layer {
			return []proto.Layer{tokenorder.New(tokenorder.Config{HoldDelay: 2 * time.Millisecond}), fifo.New(fifo.Config{})}
		},
		func(proto.Env) []proto.Layer {
			return []proto.Layer{seqorder.New(0), fifo.New(fifo.Config{})}
		},
	}
	c := newCluster(t, 7, simnet.Config{Nodes: 5, PropDelay: 200 * time.Microsecond}, 5,
		switching.Config{Protocols: protos})
	// Keep old-protocol traffic in flight, then switch and immediately
	// send on the new protocol.
	for i := 0; i < 10; i++ {
		at := time.Duration(i) * 2 * time.Millisecond
		i := i
		c.Sim.At(at, func() { castTagged(t, c, ids.ProcID(i%5), fmt.Sprintf("old%d", i)) })
	}
	c.Sim.At(21*time.Millisecond, func() { c.Members[0].Switch.RequestSwitch() })
	for i := 0; i < 10; i++ {
		at := 22*time.Millisecond + time.Duration(i)*time.Millisecond
		i := i
		c.Sim.At(at, func() { castTagged(t, c, ids.ProcID(i%5), fmt.Sprintf("new%d", i)) })
	}
	c.Run(5 * time.Second)
	c.Stop()
	assertAgreement(t, c, 20)
	assertEpochBoundary(t, c)
	var buffered uint64
	for _, m := range c.Members {
		buffered += m.Switch.Stats().Buffered
	}
	if buffered == 0 {
		t.Error("no new-epoch message was ever buffered — the race the SP exists for never happened")
	}
}

func TestSwitchWithNoTrafficCompletes(t *testing.T) {
	c := newCluster(t, 8, simnet.Config{Nodes: 3, PropDelay: 200 * time.Microsecond}, 3, switching.Config{})
	c.Sim.At(5*time.Millisecond, func() { c.Members[0].Switch.RequestSwitch() })
	c.Run(time.Second)
	c.Stop()
	for p, m := range c.Members {
		if m.Switch.Epoch() != 1 {
			t.Fatalf("member %d: empty switch did not complete (epoch %d)", p, m.Switch.Epoch())
		}
	}
}

func TestSingletonGroupSwitch(t *testing.T) {
	c := newCluster(t, 9, simnet.Config{Nodes: 1}, 1, switching.Config{})
	castTagged(t, c, 0, "solo0")
	c.Sim.At(5*time.Millisecond, func() { c.Members[0].Switch.RequestSwitch() })
	c.Sim.At(100*time.Millisecond, func() { castTagged(t, c, 0, "solo1") })
	c.Run(2 * time.Second)
	c.Stop()
	if got := c.Members[0].Switch.Epoch(); got != 1 {
		t.Fatalf("epoch = %d, want 1", got)
	}
	bodies, err := c.AppBodies(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 2 || !strings.HasPrefix(bodies[0], "e0-") || !strings.HasPrefix(bodies[1], "e1-") {
		t.Fatalf("bodies = %v", bodies)
	}
}

func TestCancelSwitch(t *testing.T) {
	c := newCluster(t, 10, simnet.Config{Nodes: 3, PropDelay: 200 * time.Microsecond}, 3, switching.Config{})
	sw := c.Members[1].Switch
	sw.RequestSwitch()
	if !sw.SwitchPending() {
		t.Fatal("request not pending")
	}
	sw.CancelSwitch()
	c.Run(500 * time.Millisecond)
	c.Stop()
	if sw.Epoch() != 0 {
		t.Error("cancelled request still switched")
	}
}

func TestConfigValidation(t *testing.T) {
	app := proto.UpFunc(func(ids.ProcID, []byte) {})
	if _, err := swtest.NewSwitched(1, simnet.Config{Nodes: 2}, 2, switching.Config{}); err == nil {
		t.Error("accepted config without protocols")
	}
	onlyOne := switching.Config{Protocols: orderedPair()[:1]}
	if _, err := swtest.NewSwitched(1, simnet.Config{Nodes: 2}, 2, onlyOne); err == nil {
		t.Error("accepted a single protocol")
	}
	if _, err := switching.New(nil, app, nil, switching.Config{Protocols: orderedPair()}); err == nil {
		t.Error("accepted nil env/transport")
	}
}

func TestCastAfterStopFails(t *testing.T) {
	c := newCluster(t, 11, simnet.Config{Nodes: 2}, 2, switching.Config{})
	c.Stop()
	if err := c.Members[0].Switch.Cast([]byte("x")); err == nil {
		t.Error("Cast succeeded after Stop")
	}
}

// TestRandomizedSwitchInvariants is the property-style test of E7: for
// several seeds, run random traffic with a mid-stream switch and check
// the SP's core guarantees — agreement (both protocols are total-order),
// reliability, and the old-before-new epoch boundary.
func TestRandomizedSwitchInvariants(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			netCfg := simnet.Config{
				Nodes:     4,
				PropDelay: 200 * time.Microsecond,
			}
			c := newCluster(t, seed, netCfg, 4, switching.Config{})
			if err := c.Net.SetFaults(0.05, 0, 500*time.Microsecond); err != nil {
				t.Fatal(err)
			}
			rng := c.Sim.Rand()
			total := 15 + rng.Intn(10)
			for i := 0; i < total; i++ {
				at := time.Duration(rng.Intn(80)) * time.Millisecond
				i := i
				c.Sim.At(at, func() {
					castTagged(t, c, ids.ProcID(i%4), fmt.Sprintf("m%02d", i))
				})
			}
			switchAt := time.Duration(20+rng.Intn(40)) * time.Millisecond
			c.Sim.At(switchAt, func() { c.Members[rng.Intn(4)].Switch.RequestSwitch() })
			c.Run(30 * time.Second)
			c.Stop()
			assertAgreement(t, c, total)
			assertEpochBoundary(t, c)
			for p, m := range c.Members {
				if m.Switch.Epoch() != 1 {
					t.Fatalf("member %d epoch = %d, want 1", p, m.Switch.Epoch())
				}
			}
		})
	}
}
