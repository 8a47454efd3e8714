// Live demonstration for the Causal Order extension (see
// property.CausalOrder): like Reliability in §6.3, causal order lacks a
// meta-property (Delayable) and so falls outside the provably-SP-safe
// class — yet the switching protocol preserves it, because its
// old-before-new delivery boundary subsumes every cross-epoch causal
// dependency.
package switching_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core/switching"
	"repro/internal/ids"
	"repro/internal/property"
	"repro/internal/proto"
	"repro/internal/protocols/causal"
	"repro/internal/protocols/fifo"
	"repro/internal/protocols/ptest"
	"repro/internal/simnet"
)

func causalPair() []switching.ProtocolFactory {
	mk := func(proto.Env) []proto.Layer {
		return []proto.Layer{causal.New(), fifo.New(fifo.Config{})}
	}
	return []switching.ProtocolFactory{mk, mk}
}

// TestCausalOrderPreservedAcrossSwitch drives a conversation (each
// message causally replies to the previous one) across a switch, under
// jitter, and checks the app-level trace satisfies Causal Order.
func TestCausalOrderPreservedAcrossSwitch(t *testing.T) {
	netCfg := simnet.Config{
		Nodes:     4,
		PropDelay: 300 * time.Microsecond,
	}
	c := newCluster(t, 41, netCfg, 4, switching.Config{Protocols: causalPair()})
	if err := c.Net.SetFaults(0, 0, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var sent []ptest.SentMsg

	// A causal conversation: member (i mod 4) speaks only after
	// delivering the previous utterance.
	const rounds = 12
	utterance := 0
	var speak func()
	speak = func() {
		if utterance >= rounds {
			return
		}
		p := ids.ProcID(utterance % 4)
		m := appMsg(p, uint32(utterance), fmt.Sprintf("turn-%02d", utterance))
		s, err := c.CastApp(m)
		if err != nil {
			t.Error(err)
			return
		}
		sent = append(sent, s)
		utterance++
		// Next speaker waits until it has delivered this turn.
		next := ids.ProcID(utterance % 4)
		want := utterance
		var poll func()
		poll = func() {
			bodies, err := c.AppBodies(next)
			if err != nil {
				t.Error(err)
				return
			}
			if len(bodies) >= want {
				speak()
				return
			}
			c.Sim.After(500*time.Microsecond, poll)
		}
		c.Sim.After(500*time.Microsecond, poll)
	}
	c.Sim.At(time.Millisecond, func() { speak() })
	// Switch in the middle of the conversation.
	c.Sim.At(25*time.Millisecond, func() { c.Members[2].Switch.RequestSwitch() })
	c.Run(30 * time.Second)
	c.Stop()

	for p := 0; p < 4; p++ {
		bodies, err := c.AppBodies(ids.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		if len(bodies) != rounds {
			t.Fatalf("member %d delivered %d/%d turns", p, len(bodies), rounds)
		}
	}
	if c.Members[0].Switch.Epoch() != 1 {
		t.Fatal("switch did not complete")
	}
	tr, err := c.TraceTimed(sent)
	if err != nil {
		t.Fatal(err)
	}
	if !(property.CausalOrder{}).Holds(tr) {
		t.Error("Causal Order violated across the switch — the SP's old-before-new boundary should subsume causality")
	}
	// The conversation pattern makes each turn causally follow the
	// previous: every member must deliver turns in sequence.
	for p := 0; p < 4; p++ {
		bodies, _ := c.AppBodies(ids.ProcID(p))
		for i, b := range bodies {
			if b != fmt.Sprintf("turn-%02d", i) {
				t.Fatalf("member %d out of causal sequence: %v", p, bodies)
			}
		}
	}
}

// TestCausalOrderRandomizedAcrossSwitches stresses the same claim with
// random concurrent traffic and two switches.
func TestCausalOrderRandomizedAcrossSwitches(t *testing.T) {
	for seed := int64(50); seed < 54; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			netCfg := simnet.Config{
				Nodes:     4,
				PropDelay: 300 * time.Microsecond,
			}
			c := newCluster(t, seed, netCfg, 4, switching.Config{Protocols: causalPair()})
			if err := c.Net.SetFaults(0.05, 0, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			var sent []ptest.SentMsg
			rng := c.Sim.Rand()
			total := 16 + rng.Intn(8)
			for i := 0; i < total; i++ {
				at := time.Duration(rng.Intn(120)) * time.Millisecond
				i := i
				c.Sim.At(at, func() {
					p := ids.ProcID(i % 4)
					s, err := c.CastApp(appMsg(p, uint32(i), fmt.Sprintf("m%02d", i)))
					if err != nil {
						t.Error(err)
						return
					}
					sent = append(sent, s)
				})
			}
			c.Sim.At(30*time.Millisecond, func() { c.Members[0].Switch.RequestSwitch() })
			c.Sim.At(90*time.Millisecond, func() { c.Members[3].Switch.RequestSwitch() })
			c.Run(60 * time.Second)
			c.Stop()
			for p := 0; p < 4; p++ {
				bodies, err := c.AppBodies(ids.ProcID(p))
				if err != nil {
					t.Fatal(err)
				}
				if len(bodies) != total {
					t.Fatalf("member %d delivered %d/%d", p, len(bodies), total)
				}
			}
			tr, err := c.TraceTimed(sent)
			if err != nil {
				t.Fatal(err)
			}
			if !(property.CausalOrder{}).Holds(tr) {
				t.Error("Causal Order violated")
			}
		})
	}
}
