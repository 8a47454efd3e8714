package switching_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core/switching"
	"repro/internal/core/switching/swtest"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/protocols/fifo"
	"repro/internal/simnet"
	"repro/internal/wire"
)

var authSessionKey = []byte("auth-test group session key")

// authPair is a bare two-protocol configuration (reliable FIFO only, no
// ordering layer) so the tests can hand-craft wire frames byte-for-byte
// identical to what a member would send.
func authPair() []switching.ProtocolFactory {
	mk := func(proto.Env) []proto.Layer {
		return []proto.Layer{fifo.New(fifo.Config{})}
	}
	return []switching.ProtocolFactory{mk, mk}
}

func authConfig(grace time.Duration) switching.Config {
	return switching.Config{
		Protocols:     authPair(),
		TokenInterval: 2 * time.Millisecond,
		Defense: &switching.DefenseConfig{
			QuarantineThreshold: 1000,
			Auth:                &switching.AuthConfig{SessionKey: authSessionKey, Grace: grace},
		},
	}
}

// authFailsFrom counts the auth_fail events member p recorded against
// peer: the per-peer attribution the trace carries.
func authFailsFrom(events []obs.Event, p, peer ids.ProcID) uint64 {
	var n uint64
	for _, e := range events {
		if e.Type == obs.EvAuthFail && e.Proc == p && e.Peer == peer {
			n++
		}
	}
	return n
}

// epochFrame builds the exact transport bytes member sender would emit
// for a cast at the given epoch: [auth envelope [mux channel][fifo
// cast seq][switch epoch][app msg]]. Replaying these bytes is
// indistinguishable from capturing a genuine frame off the wire — the
// session key is shared group state, so a recorded frame IS this.
func epochFrame(epoch uint64, sender ids.ProcID, seq uint64, body string) []byte {
	app := proto.AppMsg{ID: proto.MakeMsgID(sender, uint32(seq)), Sender: sender, Body: []byte(body)}
	e := wire.NewEncoder(16)
	e.Channel(ids.ProtocolChannel(int(epoch % 2)))
	e.U8(1) // fifo kindCast
	e.Uvarint(seq)
	e.Uvarint(epoch)
	inner := e.Prepend(app.Encode())
	return wire.SealAuth(wire.DeriveEpochKey(authSessionKey, epoch), epoch, inner)
}

// TestAuthCrossEpochReplayRejected is the acceptance test for the
// epoch-keyed session: a frame captured in epoch 0 and replayed after
// the group switched to epoch 1 — past the grace window — is rejected
// and counted, while the same kind of old-epoch frame arriving within
// the grace window (in flight during the switch) is still delivered.
func TestAuthCrossEpochReplayRejected(t *testing.T) {
	const grace = 30 * time.Millisecond
	cfg := authConfig(grace)
	col := obs.NewCollector()
	cfg.Recorder = col
	c, err := swtest.NewSwitched(41, simnet.Config{Nodes: 4, PropDelay: 300 * time.Microsecond}, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := c.Members[1]
	inFlight := epochFrame(0, 3, 0, "in-flight old epoch")
	replay := epochFrame(0, 3, 1, "cross-epoch replay")

	c.Sim.At(10*time.Millisecond, func() { c.Members[0].Switch.RequestSwitch() })
	// Poll for the victim's key roll (PREPARE arrival), then inject the
	// old-epoch frame immediately — inside the grace window, exactly
	// like a frame that was in flight when the epoch rolled — and the
	// replayed frame well after the window closes.
	var poll func()
	poll = func() {
		if victim.Switch.SendEpoch() == 0 {
			c.Sim.At(c.Sim.Now()+500*time.Microsecond, poll)
			return
		}
		victim.Switch.Recv(3, inFlight)
		c.Sim.At(c.Sim.Now()+grace+10*time.Millisecond, func() {
			victim.Switch.Recv(3, replay)
		})
	}
	c.Sim.At(10*time.Millisecond, poll)
	c.Run(200 * time.Millisecond)

	stats := victim.Switch.Stats()
	if stats.SwitchesCompleted != 1 {
		t.Fatalf("victim completed %d switches, want 1", stats.SwitchesCompleted)
	}
	if got := victim.Switch.Epoch(); got != 1 {
		t.Fatalf("victim at epoch %d, want 1", got)
	}
	bodies, err := c.AppBodies(1)
	if err != nil {
		t.Fatal(err)
	}
	var sawInFlight, sawReplay bool
	for _, b := range bodies {
		switch b {
		case "in-flight old epoch":
			sawInFlight = true
		case "cross-epoch replay":
			sawReplay = true
		}
	}
	if !sawInFlight {
		t.Errorf("in-flight old-epoch frame within grace was not delivered; bodies = %q", bodies)
	}
	if sawReplay {
		t.Errorf("cross-epoch replay was delivered; bodies = %q", bodies)
	}
	if stats.AuthFailed != 1 {
		t.Errorf("AuthFailed = %d, want 1 (the replay)", stats.AuthFailed)
	}
	if got := authFailsFrom(col.Events(), 1, 3); got != 1 {
		t.Errorf("auth failures from 3 = %d, want 1", got)
	}
	c.Stop()
}

// TestAuthForgeryRejectedBeforeStateMutation: frames sealed under a
// wrong key, an absent key (a CRC envelope), and raw garbage are
// all counted and dropped at the trust boundary; the forged body never
// reaches any application and the ring keeps rotating.
func TestAuthForgeryRejectedBeforeStateMutation(t *testing.T) {
	cfg := authConfig(0)
	cfg.Defense.QuarantineThreshold = 5
	var quarantined []ids.ProcID
	cfg.Defense.OnQuarantine = func(p ids.ProcID) { quarantined = append(quarantined, p) }
	col := obs.NewCollector()
	cfg.Recorder = col
	c, err := swtest.NewSwitched(42, simnet.Config{Nodes: 4, PropDelay: 300 * time.Microsecond}, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := c.Members[0]

	// The forger crafts syntactically valid inner frames but cannot
	// derive the epoch key.
	forgeInner := func(body string) []byte {
		e := wire.NewEncoder(16)
		e.Channel(ids.ProtocolChannel(0))
		e.U8(1).Uvarint(0).Uvarint(0)
		return e.Prepend(proto.AppMsg{ID: 99, Sender: 2, Body: []byte(body)}.Encode())
	}
	forged := [][]byte{
		wire.SealAuth(wire.DeriveEpochKey([]byte("wrong session"), 0), 0, forgeInner("FORGED wrong key")),
		crcEnveloped(forgeInner("FORGED absent key")), // checksummed, no MAC at all
		[]byte("raw garbage, not an envelope"),
	}
	for i, pkt := range forged {
		pkt := pkt
		c.Sim.At(time.Duration(5+i)*time.Millisecond, func() { victim.Switch.Recv(2, pkt) })
	}
	// Push two more wrong-key forgeries to cross the threshold of 5.
	for i := 0; i < 2; i++ {
		i := i
		c.Sim.At(time.Duration(10+i)*time.Millisecond, func() {
			victim.Switch.Recv(2, wire.SealAuth([]byte("x"), 0, forgeInner(fmt.Sprintf("FORGED %d", i))))
		})
	}
	c.Run(100 * time.Millisecond)

	stats := victim.Switch.Stats()
	if stats.AuthFailed != 5 {
		t.Errorf("AuthFailed = %d, want 5", stats.AuthFailed)
	}
	if got := authFailsFrom(col.Events(), 0, 2); got != 5 {
		t.Errorf("auth failures from 2 = %d, want 5", got)
	}
	if stats.Quarantines != 1 {
		t.Errorf("Quarantines = %d, want 1", stats.Quarantines)
	}
	if len(quarantined) != 1 || quarantined[0] != 2 {
		t.Errorf("OnQuarantine fired for %v, want [2]", quarantined)
	}
	if stats.TokenPasses == 0 {
		t.Error("ring stopped rotating under forgery")
	}
	for p := range c.Members {
		bodies, err := c.AppBodies(ids.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bodies {
			if len(b) >= 6 && b[:6] == "FORGED" {
				t.Errorf("member %d delivered forged body %q", p, b)
			}
		}
	}
	c.Stop()
}

// TestQuarantineCountsBothDropKinds: a peer's authentication failures
// and its malformed frames advance one quarantine count. Peer 2 sends k
// forgeries, then validly sealed frames whose mux header does not
// decode; the T-th drop of either kind quarantines it, once, and the
// (T-1)-th does not.
func TestQuarantineCountsBothDropKinds(t *testing.T) {
	const threshold, k = 6, 2
	cfg := switching.Hardened(hardeningSessionKey, recPair()...)
	cfg.TokenInterval = 2 * time.Millisecond
	cfg.Defense.QuarantineThreshold = threshold
	var quarantined []ids.ProcID
	cfg.Defense.OnQuarantine = func(p ids.ProcID) { quarantined = append(quarantined, p) }
	c, err := swtest.NewSwitched(44, simnet.Config{Nodes: 4, PropDelay: 100 * time.Microsecond}, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := c.Members[0].Switch
	forged := wire.SealAuth(wire.DeriveEpochKey([]byte("wrong session"), 0), 0, []byte("forged"))
	undecodable := wire.SealAuth(wire.DeriveEpochKey(hardeningSessionKey, 0), 0, nil)
	c.Sim.At(20*time.Millisecond, func() {
		for i := 0; i < k; i++ {
			victim.Recv(2, forged)
		}
		for i := k; i < threshold-1; i++ {
			victim.Recv(2, undecodable)
		}
		st := victim.Stats()
		if st.AuthFailed != k || st.MalformedDropped != threshold-1-k {
			t.Fatalf("after %d drops: auth failed %d, malformed %d; want %d, %d",
				threshold-1, st.AuthFailed, st.MalformedDropped, k, threshold-1-k)
		}
		if st.Quarantines != 0 || len(quarantined) != 0 {
			t.Errorf("quarantined at drop %d of threshold %d", threshold-1, threshold)
		}
		victim.Recv(2, undecodable)
	})
	c.Run(60 * time.Millisecond)
	c.Stop()

	st := victim.Stats()
	if st.AuthFailed != k || st.MalformedDropped != threshold-k {
		t.Errorf("auth failed %d, malformed %d; want %d, %d", st.AuthFailed, st.MalformedDropped, k, threshold-k)
	}
	if st.Quarantines != 1 {
		t.Errorf("Quarantines = %d, want 1", st.Quarantines)
	}
	if len(quarantined) != 1 || quarantined[0] != 2 {
		t.Errorf("OnQuarantine fired for %v, want [2]", quarantined)
	}
}

// TestAuthSessionEndToEnd runs real traffic across a switch with auth
// enabled: every body is delivered everywhere with zero auth failures —
// the grace window absorbs the old-epoch frames in flight around the
// key roll. The same scenario with a degenerate 1ns grace shows the
// window is load-bearing (stragglers get rejected) yet degrades to
// latency, not loss: FIFO retransmissions re-seal under the current
// key, so delivery still converges.
func TestAuthSessionEndToEnd(t *testing.T) {
	run := func(grace time.Duration) (*swtest.SwitchedCluster, switching.Stats) {
		cfg := authConfig(grace)
		cfg.Control = fifo.Config{ResendInterval: 5 * time.Millisecond, AckInterval: 10 * time.Millisecond,
			HeartbeatInterval: 5 * time.Millisecond}
		// A long propagation delay keeps data frames in flight across
		// the PREPARE sweep, so old-epoch frames genuinely arrive after
		// their receivers rolled the key — the grace window's case.
		c, err := swtest.NewSwitched(43, simnet.Config{Nodes: 4, PropDelay: 2 * time.Millisecond}, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Continuous traffic from every member while a switch runs.
		for i := 0; i < 20; i++ {
			i := i
			at := time.Duration(i) * time.Millisecond
			c.Sim.At(at, func() {
				m := proto.AppMsg{ID: proto.MakeMsgID(ids.ProcID(i%4), uint32(i)),
					Sender: ids.ProcID(i % 4), Body: []byte(fmt.Sprintf("m%02d", i))}
				if _, err := c.CastApp(m); err != nil {
					t.Errorf("cast %d: %v", i, err)
				}
			})
		}
		c.Sim.At(5*time.Millisecond, func() { c.Members[2].Switch.RequestSwitch() })
		c.Run(500 * time.Millisecond)
		var total switching.Stats
		for _, m := range c.Members {
			total.Add(m.Switch.Stats())
		}
		return c, total
	}

	c, healthy := run(0) // default grace: 10× token interval
	if healthy.AuthFailed != 0 {
		t.Errorf("healthy run rejected %d frames", healthy.AuthFailed)
	}
	if healthy.SwitchesCompleted != 4 {
		t.Errorf("healthy run completed %d member-switches, want 4", healthy.SwitchesCompleted)
	}
	for p := 0; p < 4; p++ {
		bodies, err := c.AppBodies(ids.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		if len(bodies) != 20 {
			t.Errorf("member %d delivered %d bodies, want 20", p, len(bodies))
		}
	}
	c.Stop()

	c2, starved := run(time.Nanosecond)
	if starved.AuthFailed == 0 {
		t.Error("1ns grace rejected nothing — the grace path is not being exercised")
	}
	for p := 0; p < 4; p++ {
		bodies, err := c2.AppBodies(ids.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		if len(bodies) != 20 {
			t.Errorf("starved-grace member %d delivered %d bodies, want 20 (repair should re-seal)", p, len(bodies))
		}
	}
	c2.Stop()
}

// TestAuthConfigValidation covers the new Validate rules.
func TestAuthConfigValidation(t *testing.T) {
	cfg := authConfig(0)
	cfg.Defense.Auth.SessionKey = nil
	if err := cfg.Validate(); err == nil {
		t.Error("empty session key accepted")
	}
	cfg = authConfig(-time.Second)
	if err := cfg.Validate(); err == nil {
		t.Error("negative grace accepted")
	}
	if err := authConfig(0).Validate(); err != nil {
		t.Errorf("valid auth config rejected: %v", err)
	}
}
