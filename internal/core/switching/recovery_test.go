package switching_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core/switching"
	"repro/internal/core/switching/swtest"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/protocols/fd"
	"repro/internal/protocols/fifo"
	"repro/internal/protocols/seqorder"
	"repro/internal/simnet"
)

// recPair is a protocol pair whose members both tolerate a dead process
// (sequencer-based total order with live sequencers), so app traffic
// keeps flowing after a crash and the tests can observe post-recovery
// delivery. Token-based sub-protocols would wedge on the crashed member
// for their own reasons, masking what the switching layer recovered.
func recPair() []switching.ProtocolFactory {
	return []switching.ProtocolFactory{
		func(proto.Env) []proto.Layer {
			return []proto.Layer{seqorder.New(0), fifo.New(fifo.Config{})}
		},
		func(proto.Env) []proto.Layer {
			return []proto.Layer{seqorder.New(1), fifo.New(fifo.Config{})}
		},
	}
}

// recConfig returns a switching config with crash recovery enabled and
// detector/timeout settings tuned for fast simulated tests.
func recConfig() switching.Config {
	return switching.Config{
		Protocols:     recPair(),
		TokenInterval: 2 * time.Millisecond,
		Recovery: &switching.RecoveryConfig{
			Detector: fd.Config{Interval: 5 * time.Millisecond},
		},
	}
}

// survivors filters out the given crashed members.
func survivors(c *swtest.SwitchedCluster, crashed ...ids.ProcID) []*swtest.SwitchedMember {
	dead := make(map[ids.ProcID]bool)
	for _, p := range crashed {
		dead[p] = true
	}
	var out []*swtest.SwitchedMember
	for _, m := range c.Members {
		if !dead[m.Node.Self()] {
			out = append(out, m)
		}
	}
	return out
}

// assertSurvivorAgreement checks that all surviving members delivered
// identical body sequences and at least wantMin of them.
func assertSurvivorAgreement(t *testing.T, c *swtest.SwitchedCluster, wantMin int, crashed ...ids.ProcID) {
	t.Helper()
	live := survivors(c, crashed...)
	ref, err := c.AppBodies(live[0].Node.Self())
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) < wantMin {
		t.Fatalf("survivor %v delivered %d < %d: %v", live[0].Node.Self(), len(ref), wantMin, ref)
	}
	for _, m := range live[1:] {
		got, err := c.AppBodies(m.Node.Self())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("survivor %v delivered %d, %v delivered %d:\n%v\nvs\n%v",
				m.Node.Self(), len(got), live[0].Node.Self(), len(ref), got, ref)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("survivor %v disagrees at %d: %q vs %q", m.Node.Self(), i, got[i], ref[i])
			}
		}
	}
}

// TestTokenRegeneratedAfterIdleCrash: a crash while the ring idles used
// to kill the token forever (E10). With recovery the survivors detect
// the silence, regenerate the token, route around the dead member, and
// can still switch.
func TestTokenRegeneratedAfterIdleCrash(t *testing.T) {
	c, err := swtest.NewSwitched(31, simnet.Config{Nodes: 4, PropDelay: 300 * time.Microsecond}, 4, recConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Sim.At(50*time.Millisecond, func() { c.Net.Crash(2) })
	c.Sim.At(200*time.Millisecond, func() { c.Members[0].Switch.RequestSwitch() })
	c.Sim.At(300*time.Millisecond, func() {
		for _, m := range survivors(c, 2) {
			castTagged(t, c, m.Node.Self(), "after")
		}
	})
	c.Run(2 * time.Second)
	c.Stop()

	var regen, passes uint64
	for _, m := range survivors(c, 2) {
		st := m.Switch.Stats()
		regen += st.TokensRegenerated
		passes += st.TokenPasses
		if got := m.Switch.Epoch(); got != 1 {
			t.Errorf("survivor %v epoch = %d, want 1", m.Node.Self(), got)
		}
		if !m.Switch.Detector().Suspected(2) {
			t.Errorf("survivor %v never suspected the crashed member", m.Node.Self())
		}
	}
	if regen == 0 {
		t.Error("no token was ever regenerated")
	}
	if passes == 0 {
		t.Error("ring stopped rotating")
	}
	assertSurvivorAgreement(t, c, 3, 2)
	assertEpochBoundary(t, c)
}

// TestCrashMidSwitchRecovers is the E10 regression pinned the other way
// round: a crash while a switch round is in flight (the case that
// previously required falling back to viewswitch) no longer wedges the
// ring — the wedge detector fires, the round is re-run over the live
// membership, and traffic resumes on the new protocol.
func TestCrashMidSwitchRecovers(t *testing.T) {
	c, err := swtest.NewSwitched(32, simnet.Config{Nodes: 4, PropDelay: 300 * time.Microsecond}, 4, recConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Old-protocol traffic in flight so the FLUSH round has to drain.
	for i := 0; i < 8; i++ {
		at := time.Duration(i) * 2 * time.Millisecond
		i := i
		c.Sim.At(at, func() { castTagged(t, c, ids.ProcID(i%4), fmt.Sprintf("pre%d", i)) })
	}
	c.Sim.At(20*time.Millisecond, func() { c.Members[0].Switch.RequestSwitch() })
	// Crash member 2 the moment the round has visibly started (member 0
	// redirected its sends), i.e. while PREPARE/SWITCH/FLUSH is in
	// flight and member 2 may hold the token or owe flush messages.
	var crashed bool
	var watch func()
	watch = func() {
		if crashed {
			return
		}
		if c.Members[0].Switch.Switching() {
			crashed = true
			c.Net.Crash(2)
			return
		}
		c.Sim.After(500*time.Microsecond, watch)
	}
	c.Sim.At(20*time.Millisecond, watch)
	// Traffic after recovery must flow on the new protocol.
	c.Sim.At(400*time.Millisecond, func() {
		for _, m := range survivors(c, 2) {
			castTagged(t, c, m.Node.Self(), "post")
		}
	})
	c.Run(3 * time.Second)
	c.Stop()

	if !crashed {
		t.Fatal("test never observed the switch starting")
	}
	var wedges, aborted uint64
	for _, m := range survivors(c, 2) {
		st := m.Switch.Stats()
		wedges += st.WedgeTimeouts
		aborted += st.SwitchesAborted
		if got := m.Switch.Epoch(); got != 1 {
			t.Errorf("survivor %v epoch = %d, want 1 (switch must complete despite crash)", m.Node.Self(), got)
		}
		if m.Switch.Switching() {
			t.Errorf("survivor %v still mid-switch", m.Node.Self())
		}
	}
	if wedges == 0 && aborted == 0 {
		t.Error("recovery machinery never engaged — crash did not land mid-switch")
	}
	assertSurvivorAgreement(t, c, 3, 2)
	assertEpochBoundary(t, c)
}

// TestInitiatorCrashRetriedByAnotherMember: the initiator crashes right
// after starting its round; some members have already redirected their
// sends. A survivor re-runs the round and completes the switch.
func TestInitiatorCrashRetriedByAnotherMember(t *testing.T) {
	c, err := swtest.NewSwitched(33, simnet.Config{Nodes: 4, PropDelay: 300 * time.Microsecond}, 4, recConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.Sim.At(20*time.Millisecond, func() { c.Members[2].Switch.RequestSwitch() })
	// Crash the initiator once its successor has joined the round (has
	// redirected its sends) — the round is then live at a survivor and
	// must be retried to completion, not abandoned.
	var crashed bool
	var watch func()
	watch = func() {
		if crashed {
			return
		}
		if c.Members[3].Switch.Switching() {
			crashed = true
			c.Net.Crash(2)
			return
		}
		c.Sim.After(200*time.Microsecond, watch)
	}
	c.Sim.At(20*time.Millisecond, watch)
	c.Sim.At(400*time.Millisecond, func() {
		for _, m := range survivors(c, 2) {
			castTagged(t, c, m.Node.Self(), "alive")
		}
	})
	c.Run(3 * time.Second)
	c.Stop()

	if !crashed {
		t.Fatal("initiator never started its round")
	}
	var completions []switching.Record
	for _, m := range survivors(c, 2) {
		if got := m.Switch.Epoch(); got != 1 {
			t.Errorf("survivor %v epoch = %d, want 1", m.Node.Self(), got)
		}
		completions = append(completions, m.Switch.Records()...)
	}
	if len(completions) == 0 {
		t.Fatal("no survivor recorded completing the retried switch")
	}
	for _, r := range completions {
		if r.Initiator == 2 {
			t.Errorf("dead member recorded as completing initiator: %+v", r)
		}
		if r.Gen == 0 {
			t.Errorf("retried switch completed at generation 0: %+v", r)
		}
	}
	assertSurvivorAgreement(t, c, 3, 2)
	assertEpochBoundary(t, c)
}

// TestPartitionedMemberRejoins: a member cut off by a partition is
// suspected and routed around; the ring switches without it. When the
// partition heals, the member adopts the ring's epoch (forced advance)
// and delivers traffic again.
func TestPartitionedMemberRejoins(t *testing.T) {
	c, err := swtest.NewSwitched(34, simnet.Config{Nodes: 4, PropDelay: 300 * time.Microsecond}, 4, recConfig())
	if err != nil {
		t.Fatal(err)
	}
	cut := []ids.ProcID{3}
	rest := []ids.ProcID{0, 1, 2}
	c.Sim.At(30*time.Millisecond, func() { c.Net.Partition(cut, rest) })
	c.Sim.At(120*time.Millisecond, func() { c.Members[0].Switch.RequestSwitch() })
	c.Sim.At(250*time.Millisecond, func() { c.Net.Heal() })
	// Post-heal traffic must reach everyone, including the rejoiner.
	c.Sim.At(600*time.Millisecond, func() {
		for p := 0; p < 4; p++ {
			castTagged(t, c, ids.ProcID(p), "postheal")
		}
	})
	c.Run(3 * time.Second)
	c.Stop()

	for _, m := range c.Members {
		if got := m.Switch.Epoch(); got != 1 {
			t.Errorf("member %v epoch = %d, want 1", m.Node.Self(), got)
		}
	}
	if c.Members[3].Switch.Stats().ForcedAdvances == 0 {
		t.Error("rejoining member never force-advanced to the ring's epoch")
	}
	// Everyone (including the rejoiner) must deliver all post-heal
	// bodies, in the same relative order.
	for p := 0; p < 4; p++ {
		bodies, err := c.AppBodies(ids.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, b := range bodies {
			if len(b) >= 8 && b[len(b)-8:] == "postheal" {
				got++
			}
		}
		if got != 4 {
			t.Errorf("member %d delivered %d post-heal bodies, want 4: %v", p, got, bodies)
		}
	}
	assertEpochBoundary(t, c)
}

// TestRecoveryKeepsTotalOrderWithoutFaults: the control experiment — the
// recovery machinery is inert on a healthy ring: no regenerations, no
// aborts, and the §2 guarantees are untouched.
func TestRecoveryKeepsTotalOrderWithoutFaults(t *testing.T) {
	c, err := swtest.NewSwitched(35, simnet.Config{Nodes: 4, PropDelay: 300 * time.Microsecond}, 4, recConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		at := time.Duration(i) * 3 * time.Millisecond
		i := i
		c.Sim.At(at, func() { castTagged(t, c, ids.ProcID(i%4), fmt.Sprintf("m%02d", i)) })
	}
	c.Sim.At(15*time.Millisecond, func() { c.Members[2].Switch.RequestSwitch() })
	c.Run(2 * time.Second)
	c.Stop()
	for _, m := range c.Members {
		st := m.Switch.Stats()
		if st.TokensRegenerated != 0 || st.SwitchesAborted != 0 || st.ForcedAdvances != 0 {
			t.Errorf("member %v recovery engaged without faults: %+v", m.Node.Self(), st)
		}
		if got := m.Switch.Epoch(); got != 1 {
			t.Errorf("member %v epoch = %d, want 1", m.Node.Self(), got)
		}
	}
	assertSurvivorAgreement(t, c, 12)
	assertEpochBoundary(t, c)
}

func TestConfigValidate(t *testing.T) {
	valid := []struct {
		name string
		cfg  switching.Config
	}{
		{"minimal", switching.Config{Protocols: orderedPair()}},
		{"with recovery", switching.Config{Protocols: orderedPair(),
			Recovery: &switching.RecoveryConfig{}}},
		{"with defense", switching.Config{Protocols: orderedPair(),
			Defense: &switching.DefenseConfig{QuarantineThreshold: 10,
				Auth: &switching.AuthConfig{SessionKey: []byte("k")}}}},
		{"PaperExact", switching.PaperExact(orderedPair()...)},
		{"Hardened", switching.Hardened([]byte("k"), orderedPair()...)},
	}
	for _, tc := range valid {
		if err := tc.cfg.Validate(); err != nil {
			t.Errorf("%s: valid config rejected: %v", tc.name, err)
		}
	}
	invalid := []struct {
		name string
		cfg  switching.Config
	}{
		{"empty", switching.Config{}},
		{"one protocol", switching.Config{Protocols: orderedPair()[:1]}},
		{"negative token interval", switching.Config{Protocols: orderedPair(),
			TokenInterval: -time.Millisecond}},
		{"negative wedge timeout", switching.Config{Protocols: orderedPair(),
			Recovery: &switching.RecoveryConfig{WedgeTimeout: -time.Second}}},
		{"negative backoff shift", switching.Config{Protocols: orderedPair(),
			Recovery: &switching.RecoveryConfig{MaxBackoffShift: -1}}},
		{"zero quarantine threshold", switching.Config{Protocols: orderedPair(),
			Defense: &switching.DefenseConfig{}}},
		{"negative quarantine threshold", switching.Config{Protocols: orderedPair(),
			Defense: &switching.DefenseConfig{QuarantineThreshold: -3}}},
		{"Hardened without a session key", switching.Hardened(nil, orderedPair()...)},
	}
	for _, tc := range invalid {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: bad config accepted", tc.name)
		}
	}
	// There is one envelope and it is keyed: Defense without Auth is
	// refused, and the error says where to start instead.
	unkeyed := switching.Config{Protocols: orderedPair(),
		Defense: &switching.DefenseConfig{QuarantineThreshold: 1}}
	if err := unkeyed.Validate(); err == nil || !strings.Contains(err.Error(), "Hardened") {
		t.Errorf("Defense without Auth: err = %v, want a rejection naming Hardened", err)
	}
}

func TestTokenGenRoundtrip(t *testing.T) {
	in := switching.Token{
		Mode:      switching.ModePrepare,
		Epoch:     7,
		Initiator: 3,
		Vector:    []uint64{1, 0, 4},
		Gen:       9,
		Origin:    2,
	}
	out, err := switching.DecodeToken(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Gen != 9 || out.Origin != 2 || out.Epoch != 7 || out.Mode != switching.ModePrepare {
		t.Errorf("roundtrip mangled token: %+v", out)
	}
}

// TestLoneSurvivorHoldsOneLineage: a token that loops straight back to a
// member alone in its view goes through the same lineage admission as a
// token off the wire. Without it the loop-back never re-armed the wedge
// timer, so a sole survivor regenerated on every wedge timeout for ever
// and rotated all of those lineages side by side.
func TestLoneSurvivorHoldsOneLineage(t *testing.T) {
	cfg := recConfig()
	col := obs.NewCollector()
	cfg.Recorder = col
	c, err := swtest.NewSwitched(3, simnet.Config{Nodes: 2, PropDelay: 300 * time.Microsecond}, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ti := cfg.TokenInterval
	c.Sim.At(5*ti, func() { c.Net.Crash(1) })
	// By 50 intervals the survivor has suspected its peer (25 ms detector
	// timeout) and regenerated the token the peer took down with it.
	alone := 50 * ti
	c.Run(alone)
	survivor := c.Members[0].Switch
	regens := survivor.Stats().TokensRegenerated
	if regens == 0 {
		t.Fatal("the survivor never regenerated the lost token; the test is not reaching the lone-member ring")
	}
	c.Run(alone + 100*ti)
	c.Stop()
	if got := survivor.Stats().TokensRegenerated; got != regens {
		t.Errorf("alone for 100 token intervals with its token looping back, the survivor regenerated %d more times", got-regens)
	}
	gens := map[uint64]int{}
	for _, e := range col.Events() {
		if e.Type == obs.EvTokenPass && e.Proc == 0 && e.At > alone {
			gens[e.Gen]++
		}
	}
	if len(gens) != 1 {
		t.Errorf("the lone survivor rotates %d token lineages at once (passes by generation: %v), want 1", len(gens), gens)
	}
}
