// Live demonstrations of §5–§6: which Table 1 properties survive an
// actual run-time protocol switch (E7 of DESIGN.md), and the §8
// observation that a view-change-based switch supports Virtual
// Synchrony (E8). Preserved: Total Order, Reliability, Integrity,
// Confidentiality. Violated: No Replay, Prioritized Delivery, Amoeba,
// Virtual Synchrony — each by a concrete, deterministic scenario.
package switching_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core/switching"
	"repro/internal/ids"
	"repro/internal/property"
	"repro/internal/proto"
	"repro/internal/protocols/amoeba"
	"repro/internal/protocols/conf"
	"repro/internal/protocols/fifo"
	"repro/internal/protocols/integrity"
	"repro/internal/protocols/noreplay"
	"repro/internal/protocols/priority"
	"repro/internal/protocols/ptest"
	"repro/internal/protocols/seqorder"
	"repro/internal/protocols/vsync"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// appMsg builds a test message.
func appMsg(sender ids.ProcID, seq uint32, body string) proto.AppMsg {
	return proto.AppMsg{ID: proto.MakeMsgID(sender, seq), Sender: sender, Body: []byte(body)}
}

// TestTotalOrderAndReliabilityPreserved runs a switch between the two
// total-order protocols under load and checks the recorded app-level
// trace against the Table 1 predicates — the positive half of §6.3.
func TestTotalOrderAndReliabilityPreserved(t *testing.T) {
	c := newCluster(t, 31, simnet.Config{Nodes: 4, PropDelay: 300 * time.Microsecond}, 4,
		switching.Config{})
	if err := c.Net.SetFaults(0, 0, 500*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	var sent []ptest.SentMsg
	seq := uint32(0)
	cast := func(p ids.ProcID, body string) {
		seq++
		m := appMsg(p, seq, body)
		s, err := c.CastApp(m)
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, s)
	}
	for i := 0; i < 12; i++ {
		at := time.Duration(i) * 3 * time.Millisecond
		i := i
		c.Sim.At(at, func() { cast(ids.ProcID(i%4), fmt.Sprintf("m%02d", i)) })
	}
	c.Sim.At(18*time.Millisecond, func() { c.Members[2].Switch.RequestSwitch() })
	c.Run(10 * time.Second)
	c.Stop()
	tr, err := c.TraceTimed(sent)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ValidateAtMostOnce(); err != nil {
		t.Fatalf("at-most-once violated: %v", err)
	}
	if !(property.TotalOrder{}).Holds(tr) {
		t.Error("Total Order violated across the switch — §6.3 says it must be preserved")
	}
	rel := property.Reliability{Group: ids.Procs(4)}
	if !rel.Holds(tr) {
		t.Error("Reliability violated across the switch — §6.3 notes the SP preserves it")
	}
}

// TestIntegrityPreservedAcrossSwitch puts an HMAC layer inside both
// protocols; a member with the wrong key cannot get anything delivered
// at trusted members, before or after the switch.
func TestIntegrityPreservedAcrossSwitch(t *testing.T) {
	key := []byte("group-integrity-key-123456")
	wrong := []byte("not-the-real-key-000000000")
	keyFor := func(env proto.Env) []byte {
		if env.Self() == 3 {
			return wrong
		}
		return key
	}
	protos := []switching.ProtocolFactory{
		func(env proto.Env) []proto.Layer {
			return []proto.Layer{seqorder.New(0), integrity.New(keyFor(env)), fifo.New(fifo.Config{})}
		},
		func(env proto.Env) []proto.Layer {
			return []proto.Layer{seqorder.New(0), integrity.New(keyFor(env)), fifo.New(fifo.Config{})}
		},
	}
	c := newCluster(t, 32, simnet.Config{Nodes: 4, PropDelay: 300 * time.Microsecond}, 4,
		switching.Config{Protocols: protos})
	// Forged traffic before, during and after the switch. The forger
	// injects straight into its sub-protocol stacks: a forged message
	// that rode the forger's own SP would inflate the send-count vector
	// with traffic no honest member can deliver and wedge the switch —
	// exactly the paper's §2 exactly-once assumption (see
	// EXPERIMENTS.md E7).
	forge := func(i int) {
		sw := c.Members[3].Switch
		payload := sw.FrameForEpoch(sw.SendEpoch(), appMsg(3, uint32(i), "forged").Encode())
		if err := sw.SubStack(sw.ActiveProtocol()).Cast(payload); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 6; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		i := i
		c.Sim.At(at, func() { forge(i) })
	}
	c.Sim.At(15*time.Millisecond, func() { c.Members[0].Switch.RequestSwitch() })
	// Honest traffic, late enough to ride the new protocol.
	c.Sim.At(200*time.Millisecond, func() {
		if err := c.Cast(1, appMsg(1, 100, "honest").Encode()); err != nil {
			t.Error(err)
		}
	})
	c.Run(10 * time.Second)
	c.Stop()
	for p := 0; p < 3; p++ {
		bodies, err := c.AppBodies(ids.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bodies {
			if b == "forged" {
				t.Fatalf("trusted member %d delivered a forged message", p)
			}
		}
		if len(bodies) != 1 || bodies[0] != "honest" {
			t.Fatalf("member %d bodies = %v, want [honest]", p, bodies)
		}
	}
}

// TestConfidentialityPreservedAcrossSwitch puts an AES layer inside both
// protocols; a member without the group key never sees plaintext,
// before or after the switch.
func TestConfidentialityPreservedAcrossSwitch(t *testing.T) {
	key := []byte("0123456789abcdef")
	wrong := []byte("ffffffffffffffff")
	mkConf := func(env proto.Env) proto.Layer {
		k := key
		if env.Self() == 3 {
			k = wrong
		}
		l, err := conf.New(k)
		if err != nil {
			panic(err)
		}
		return l
	}
	// Both epochs use the sequencer protocol: a member whose layers
	// reject or garble group traffic (here, the wrong-key eavesdropper)
	// cannot be trusted to keep a token rotating, so the token protocol
	// is not a sensible choice with an insider outside the key group.
	protos := []switching.ProtocolFactory{
		func(env proto.Env) []proto.Layer {
			return []proto.Layer{seqorder.New(0), mkConf(env), fifo.New(fifo.Config{})}
		},
		func(env proto.Env) []proto.Layer {
			return []proto.Layer{seqorder.New(0), mkConf(env), fifo.New(fifo.Config{})}
		},
	}
	c := newCluster(t, 33, simnet.Config{Nodes: 4, PropDelay: 300 * time.Microsecond}, 4,
		switching.Config{Protocols: protos})
	c.Sim.At(time.Millisecond, func() {
		if err := c.Cast(0, appMsg(0, 1, "secret-plan-A").Encode()); err != nil {
			t.Error(err)
		}
	})
	c.Sim.At(10*time.Millisecond, func() { c.Members[0].Switch.RequestSwitch() })
	c.Sim.At(100*time.Millisecond, func() {
		if err := c.Cast(1, appMsg(1, 2, "secret-plan-B").Encode()); err != nil {
			t.Error(err)
		}
	})
	c.Run(10 * time.Second)
	c.Stop()
	// Trusted members read both secrets.
	for p := 0; p < 3; p++ {
		bodies, err := c.AppBodies(ids.ProcID(p))
		if err != nil {
			t.Fatalf("member %d: %v", p, err)
		}
		if len(bodies) != 2 || bodies[0] != "secret-plan-A" || bodies[1] != "secret-plan-B" {
			t.Fatalf("member %d bodies = %v", p, bodies)
		}
	}
	// The eavesdropper's deliveries never contain the plaintext.
	for _, d := range c.Members[3].Delivered {
		if s := string(d.Payload); s == appMsgBody(t, d.Payload) {
			_ = s // DecodeApp below is the real check
		}
		if m, err := proto.DecodeApp(d.Payload); err == nil {
			if string(m.Body) == "secret-plan-A" || string(m.Body) == "secret-plan-B" {
				t.Fatal("eavesdropper recovered a secret across the switch")
			}
		}
	}
}

func appMsgBody(t *testing.T, payload []byte) string {
	t.Helper()
	m, err := proto.DecodeApp(payload)
	if err != nil {
		return ""
	}
	return string(m.Body)
}

// appBodyKey extracts the application body from a switch-framed payload
// (epoch uvarint + encoded AppMsg) so the no-replay layer suppresses by
// body, as Table 1 defines the property.
func appBodyKey(payload []byte) []byte {
	d := wire.NewDecoder(payload)
	_ = d.Uvarint() // epoch
	m, err := proto.DecodeApp(d.Remaining())
	if err != nil {
		return payload
	}
	return m.Body
}

// TestNoReplayViolatedAcrossSwitch is §6.2 live: each protocol
// suppresses replayed bodies, yet the same body sent once per protocol
// epoch is delivered twice — No Replay is not composable.
func TestNoReplayViolatedAcrossSwitch(t *testing.T) {
	protos := []switching.ProtocolFactory{
		func(proto.Env) []proto.Layer {
			return []proto.Layer{noreplay.NewKeyed(appBodyKey), seqorder.New(0), fifo.New(fifo.Config{})}
		},
		func(proto.Env) []proto.Layer {
			return []proto.Layer{noreplay.NewKeyed(appBodyKey), seqorder.New(0), fifo.New(fifo.Config{})}
		},
	}
	c := newCluster(t, 34, simnet.Config{Nodes: 3, PropDelay: 300 * time.Microsecond}, 3,
		switching.Config{Protocols: protos})
	var sent []ptest.SentMsg
	cast := func(seq uint32, body string) {
		s, err := c.CastApp(appMsg(0, seq, body))
		if err != nil {
			t.Error(err)
		}
		sent = append(sent, s)
	}
	c.Sim.At(time.Millisecond, func() { cast(1, "pay $100") })
	c.Sim.At(20*time.Millisecond, func() { c.Members[0].Switch.RequestSwitch() })
	// Same body again, now riding the new protocol: its no-replay layer
	// has never seen it.
	c.Sim.At(200*time.Millisecond, func() { cast(2, "pay $100") })
	// Control: replaying within one protocol IS suppressed. (The
	// suppressed message never reaches the switch layer, so its epoch
	// must not be closed by a further switch — see EXPERIMENTS.md E7.)
	c.Sim.At(300*time.Millisecond, func() { cast(3, "pay $100") })
	c.Run(10 * time.Second)
	c.Stop()
	for p := 0; p < 3; p++ {
		bodies, err := c.AppBodies(ids.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		if len(bodies) != 2 {
			t.Fatalf("member %d delivered %v — want exactly 2 copies (one per protocol epoch)", p, bodies)
		}
	}
	tr, err := c.TraceTimed(sent)
	if err != nil {
		t.Fatal(err)
	}
	if (property.NoReplay{}).Holds(tr) {
		t.Error("No Replay held across the switch — expected the §6.2 violation")
	}
}

// TestPrioritizedDeliveryViolatedAcrossSwitch is §5.2 live: the SWITCH
// token reaches ring members before the master, so a member whose old
// epoch is already drained releases its buffered new-protocol messages
// before the master does — master-first ordering is lost to delay.
func TestPrioritizedDeliveryViolatedAcrossSwitch(t *testing.T) {
	mk := func(proto.Env) []proto.Layer {
		return []proto.Layer{priority.New(0), fifo.New(fifo.Config{})}
	}
	protos := []switching.ProtocolFactory{mk, mk}
	// Master is member 0; the initiator is member 1, so the SWITCH and
	// FLUSH rounds reach members 2 and 3 before the master.
	c := newCluster(t, 35, simnet.Config{Nodes: 4, PropDelay: time.Millisecond}, 4,
		switching.Config{Protocols: protos, TokenInterval: 2 * time.Millisecond})
	var sent []ptest.SentMsg
	c.Sim.At(5*time.Millisecond, func() { c.Members[1].Switch.RequestSwitch() })
	// Cast on the new protocol as soon as member 1 has prepared; the
	// message is buffered at every member until its switch completes.
	var poll func()
	poll = func() {
		if c.Members[1].Switch.Switching() {
			s, err := c.CastApp(appMsg(1, 1, "urgent"))
			if err != nil {
				t.Error(err)
			}
			sent = append(sent, s)
			return
		}
		c.Sim.After(200*time.Microsecond, poll)
	}
	c.Sim.At(6*time.Millisecond, func() { poll() })
	c.Run(10 * time.Second)
	c.Stop()
	// Find each member's delivery time of "urgent".
	at := map[ids.ProcID]time.Duration{}
	for p, m := range c.Members {
		for _, d := range m.Delivered {
			if appMsgBody(t, d.Payload) == "urgent" {
				at[ids.ProcID(p)] = d.At
			}
		}
	}
	if len(at) != 4 {
		t.Fatalf("urgent reached %d members, want 4", len(at))
	}
	early := false
	for p, tm := range at {
		if p != 0 && tm < at[0] {
			early = true
			t.Logf("member %v delivered at %v, master at %v", p, tm, at[0])
		}
	}
	if !early {
		t.Fatal("no member beat the master — expected the §5.2 violation")
	}
	tr, err := c.TraceTimed(sent)
	if err != nil {
		t.Fatal(err)
	}
	if (property.PrioritizedDelivery{Master: 0}).Holds(tr) {
		t.Error("Prioritized Delivery held across the switch — expected violation")
	}
}

// TestAmoebaViolatedAcrossSwitch is §5.3–5.4 live: a sender whose
// Amoeba discipline blocks it inside protocol A sends again immediately
// through protocol B after the switch redirects it — the app-level
// trace shows a send while the previous message was still awaited.
func TestAmoebaViolatedAcrossSwitch(t *testing.T) {
	mk := func(proto.Env) []proto.Layer {
		return []proto.Layer{amoeba.New(), fifo.New(fifo.Config{})}
	}
	protos := []switching.ProtocolFactory{mk, mk}
	c := newCluster(t, 36, simnet.Config{Nodes: 3, PropDelay: 500 * time.Microsecond}, 3,
		switching.Config{Protocols: protos, TokenInterval: 2 * time.Millisecond})
	var sent []ptest.SentMsg
	cast := func(seq uint32, body string) {
		s, err := c.CastApp(appMsg(1, seq, body))
		if err != nil {
			t.Error(err)
		}
		sent = append(sent, s)
	}
	// Member 1 cannot hear its own traffic for a while: its first cast
	// stays outstanding inside protocol A.
	c.Net.Block(1, 1)
	c.Sim.At(time.Millisecond, func() { cast(1, "first") })
	c.Sim.At(2*time.Millisecond, func() { c.Members[0].Switch.RequestSwitch() })
	// Once member 1 has prepared, its next cast rides protocol B, whose
	// Amoeba layer has no outstanding message — it goes out instantly.
	var poll func()
	poll = func() {
		if c.Members[1].Switch.Switching() {
			cast(2, "second")
			// Heal the loopback so the run completes.
			c.Sim.After(5*time.Millisecond, func() { c.Net.Unblock(1, 1) })
			return
		}
		c.Sim.After(200*time.Microsecond, poll)
	}
	c.Sim.At(3*time.Millisecond, func() { poll() })
	c.Run(30 * time.Second)
	c.Stop()
	for p := 0; p < 3; p++ {
		bodies, err := c.AppBodies(ids.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		if len(bodies) != 2 {
			t.Fatalf("member %d delivered %v, want both messages", p, bodies)
		}
	}
	tr, err := c.TraceTimed(sent)
	if err != nil {
		t.Fatal(err)
	}
	if (property.Amoeba{}).Holds(tr) {
		t.Error("Amoeba held across the switch — expected the §5.3 violation")
	}
}

// vsyncPair builds two vsync-over-total-order protocols and returns the
// per-member vsync layers of each epoch parity for view installation.
func vsyncPair(layersA, layersB map[ids.ProcID]*vsync.Layer) []switching.ProtocolFactory {
	return []switching.ProtocolFactory{
		func(env proto.Env) []proto.Layer {
			l := vsync.New()
			layersA[env.Self()] = l
			return []proto.Layer{l, seqorder.New(0), fifo.New(fifo.Config{})}
		},
		func(env proto.Env) []proto.Layer {
			l := vsync.New()
			layersB[env.Self()] = l
			return []proto.Layer{l, seqorder.New(0), fifo.New(fifo.Config{})}
		},
	}
}

// TestVirtualSynchronyViolatedAcrossSwitch is §6.1 live: a view
// installed in protocol A excludes member 2; after a plain SP switch,
// protocol B's fresh view layer knows nothing of it and happily
// delivers member 2's traffic — the app-level trace violates VS.
func TestVirtualSynchronyViolatedAcrossSwitch(t *testing.T) {
	layersA := map[ids.ProcID]*vsync.Layer{}
	layersB := map[ids.ProcID]*vsync.Layer{}
	c := newCluster(t, 37, simnet.Config{Nodes: 3, PropDelay: 300 * time.Microsecond}, 3,
		switching.Config{Protocols: vsyncPair(layersA, layersB)})
	var sent []ptest.SentMsg
	// Install view {0,1} inside protocol A (framed for epoch 0 so the
	// switch layer parses it at receivers).
	c.Sim.At(time.Millisecond, func() {
		vm := proto.AppMsg{ID: proto.MakeMsgID(0, 900), Sender: 0, IsView: true, View: []ids.ProcID{0, 1}}
		sent = append(sent, ptest.SentMsg{At: c.Sim.Now(), Msg: vm})
		payload := c.Members[0].Switch.FrameForEpoch(0, vm.Encode())
		if err := layersA[0].InstallView([]ids.ProcID{0, 1}, payload); err != nil {
			t.Error(err)
		}
	})
	// Excluded traffic in epoch 0 is suppressed by vsync-A. The
	// excluded member casts below the SP: a suppressed message that had
	// been counted in the send-count vector would wedge the switch (the
	// §2 exactly-once assumption; see EXPERIMENTS.md E7).
	c.Sim.At(10*time.Millisecond, func() {
		m := appMsg(2, 1, "ghost-A")
		sent = append(sent, ptest.SentMsg{At: c.Sim.Now(), Msg: m})
		sw := c.Members[2].Switch
		payload := sw.FrameForEpoch(sw.SendEpoch(), m.Encode())
		if err := sw.SubStack(sw.ActiveProtocol()).Cast(payload); err != nil {
			t.Error(err)
		}
	})
	c.Sim.At(30*time.Millisecond, func() { c.Members[0].Switch.RequestSwitch() })
	// After the switch, the same sender's traffic sails through B.
	c.Sim.At(300*time.Millisecond, func() {
		s, err := c.CastApp(appMsg(2, 2, "ghost-B"))
		if err != nil {
			t.Error(err)
		}
		sent = append(sent, s)
	})
	c.Run(10 * time.Second)
	c.Stop()
	for p := 0; p < 2; p++ {
		bodies, err := c.AppBodies(ids.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		// The view message has an empty body; ghost-A must be absent,
		// ghost-B present.
		var sawA, sawB bool
		for _, b := range bodies {
			if b == "ghost-A" {
				sawA = true
			}
			if b == "ghost-B" {
				sawB = true
			}
		}
		if sawA {
			t.Fatalf("member %d delivered excluded-epoch traffic", p)
		}
		if !sawB {
			t.Fatalf("member %d missed the post-switch message", p)
		}
	}
	tr, err := c.TraceTimed(sent)
	if err != nil {
		t.Fatal(err)
	}
	vs := property.VirtualSynchrony{InitialView: ids.Procs(3)}
	if vs.Holds(tr) {
		t.Error("Virtual Synchrony held across the plain switch — expected the §6.1 violation")
	}
}

// TestViewChangeSwitchPreservesVSync is §8 live: carrying the view into
// the new protocol as part of the switch (the virtually synchronous
// view-change mechanism the paper sketches as future work) restores the
// property.
func TestViewChangeSwitchPreservesVSync(t *testing.T) {
	layersA := map[ids.ProcID]*vsync.Layer{}
	layersB := map[ids.ProcID]*vsync.Layer{}
	var done bool
	cfg := switching.Config{
		Protocols:        vsyncPair(layersA, layersB),
		OnSwitchComplete: func(switching.Record) { done = true },
	}
	c := newCluster(t, 38, simnet.Config{Nodes: 3, PropDelay: 300 * time.Microsecond}, 3, cfg)
	var sent []ptest.SentMsg
	installView := func(epoch uint64, layers map[ids.ProcID]*vsync.Layer, seq uint32) {
		vm := proto.AppMsg{ID: proto.MakeMsgID(0, seq), Sender: 0, IsView: true, View: []ids.ProcID{0, 1}}
		sent = append(sent, ptest.SentMsg{At: c.Sim.Now(), Msg: vm})
		payload := c.Members[0].Switch.FrameForEpoch(epoch, vm.Encode())
		if err := layers[0].InstallView([]ids.ProcID{0, 1}, payload); err != nil {
			t.Error(err)
		}
	}
	c.Sim.At(time.Millisecond, func() { installView(0, layersA, 900) })
	c.Sim.At(30*time.Millisecond, func() { c.Members[0].Switch.RequestSwitch() })
	// The view-change-aware switch: once the SP completes, re-install
	// the current view in the new protocol before application traffic
	// resumes.
	var waitDone func()
	waitDone = func() {
		if done {
			installView(1, layersB, 901)
			return
		}
		c.Sim.After(time.Millisecond, waitDone)
	}
	c.Sim.At(31*time.Millisecond, func() { waitDone() })
	// Excluded member's post-switch traffic (after the view has
	// propagated).
	c.Sim.At(400*time.Millisecond, func() {
		s, err := c.CastApp(appMsg(2, 2, "ghost"))
		if err != nil {
			t.Error(err)
		}
		sent = append(sent, s)
	})
	c.Run(10 * time.Second)
	c.Stop()
	tr, err := c.TraceTimed(sent)
	if err != nil {
		t.Fatal(err)
	}
	vs := property.VirtualSynchrony{InitialView: ids.Procs(3)}
	if !vs.Holds(tr) {
		t.Errorf("Virtual Synchrony violated despite the view-change switch:\n%v", tr)
	}
	// The ghost really was suppressed at surviving members.
	for p := 0; p < 2; p++ {
		bodies, err := c.AppBodies(ids.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bodies {
			if b == "ghost" {
				t.Fatalf("member %d delivered excluded traffic after view-change switch", p)
			}
		}
	}
}
