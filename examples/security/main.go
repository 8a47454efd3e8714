// Security: the "Security" use case of §1 — "system managers will be
// able to increase security at run-time, for example when an intrusion
// detection system notices unusual behavior".
//
// The group starts on a plain (fast, unauthenticated) stack; a rogue
// process can inject forged orders. When the intrusion detector fires,
// the manager switches to an HMAC-authenticated, AES-encrypted stack —
// without restarting the application — and the rogue's forgeries stop
// getting through.
//
// Act 2 turns the adversary up from a rogue member to an attacker on
// the wire: with the authenticated session enabled (Defense.Auth), the
// group MACs every frame under a per-epoch key derived from a shared
// session secret. The attacker forges frames under a guessed key and
// replays genuine captured frames after the group switches protocols —
// both are rejected at the trust boundary, before any protocol state
// moves, and the victim's counters show exactly what was turned away.
//
//	go run ./examples/security
package main

import (
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/core/switching"
	"repro/internal/core/switching/swtest"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/protocols/conf"
	"repro/internal/protocols/fifo"
	"repro/internal/protocols/integrity"
	"repro/internal/protocols/seqorder"
	"repro/internal/simnet"
	"repro/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.SetOutput(os.Stderr)
		log.Fatal("security: ", err)
	}
}

func run() error {
	const members = 4
	const rogue = ids.ProcID(3)
	macKey := []byte("shared-group-mac-key-00001")
	encKey := []byte("0123456789abcdef") // AES-128

	secured := func(env proto.Env) []proto.Layer {
		mk, ek := macKey, encKey
		if env.Self() == rogue {
			// The rogue was not given the new keys.
			mk = []byte("guessed-wrong-key-guessed!")
			ek = []byte("ffffffffffffffff")
		}
		c, err := conf.New(ek)
		if err != nil {
			panic(err) // static key length; cannot fail
		}
		return []proto.Layer{seqorder.New(0), integrity.New(mk), c, fifo.New(fifo.Config{})}
	}
	cfg := switching.PaperExact(
		// Epoch 0: plain stack — no authentication at all.
		func(proto.Env) []proto.Layer {
			return []proto.Layer{seqorder.New(0), fifo.New(fifo.Config{})}
		},
		// Epoch 1: authenticated + encrypted stack.
		secured,
	)
	cfg.OnSwitchComplete = func(r switching.Record) {
		fmt.Printf("  security switch completed in %v\n", r.Duration().Round(time.Millisecond))
	}
	cluster, err := swtest.NewSwitched(11, simnet.Ethernet10Mbit(members), members, cfg)
	if err != nil {
		return err
	}
	sim := cluster.Sim

	honestSeq := uint32(0)
	honest := func(p ids.ProcID, body string) {
		honestSeq++
		m := proto.AppMsg{ID: proto.MakeMsgID(p, honestSeq), Sender: p, Body: []byte(body)}
		if err := cluster.Members[p].Switch.Cast(m.Encode()); err != nil {
			fmt.Fprintln(os.Stderr, "cast:", err)
		}
	}
	// The rogue injects below its switch so it cannot wedge the group's
	// send-count vector (see EXPERIMENTS.md E7 on the §2 exactly-once
	// assumption).
	forgeSeq := uint32(100)
	forge := func(body string) {
		forgeSeq++
		sw := cluster.Members[rogue].Switch
		m := proto.AppMsg{ID: proto.MakeMsgID(rogue, forgeSeq), Sender: rogue, Body: []byte(body)}
		payload := sw.FrameForEpoch(sw.SendEpoch(), m.Encode())
		if err := sw.SubStack(sw.ActiveProtocol()).Cast(payload); err != nil {
			fmt.Fprintln(os.Stderr, "forge:", err)
		}
	}

	fmt.Println("phase 1: plain protocol — the rogue's forgery gets delivered")
	sim.At(5*time.Millisecond, func() { honest(0, "transfer $10 to alice") })
	sim.At(15*time.Millisecond, func() { forge("transfer $9999 to rogue") })
	sim.At(40*time.Millisecond, func() {
		fmt.Println("phase 2: intrusion detected — switching to the secured stack")
		cluster.Members[0].Switch.RequestSwitch()
	})
	sim.At(300*time.Millisecond, func() {
		fmt.Println("phase 3: secured protocol — the same forgery is now rejected")
		honest(1, "transfer $20 to bob")
		forge("transfer $9999 to rogue AGAIN")
	})
	cluster.Run(10 * time.Second)
	cluster.Stop()

	for p := 0; p < 3; p++ {
		bodies, err := cluster.AppBodies(ids.ProcID(p))
		if err != nil {
			return err
		}
		if p == 0 {
			fmt.Printf("\nmember 0's ledger:\n")
			for _, b := range bodies {
				fmt.Println("   ", b)
			}
		}
		joined := strings.Join(bodies, "|")
		if !strings.Contains(joined, "$10 to alice") || !strings.Contains(joined, "$20 to bob") {
			return fmt.Errorf("member %d lost honest traffic: %v", p, bodies)
		}
		if !strings.Contains(joined, "$9999 to rogue") {
			return fmt.Errorf("member %d: expected the pre-switch forgery to land (plain stack)", p)
		}
		if strings.Contains(joined, "AGAIN") {
			return fmt.Errorf("member %d delivered a forgery after the security switch", p)
		}
	}
	fmt.Println("\nthe pre-switch forgery landed (plain stack); the post-switch one")
	fmt.Println("was dropped by the HMAC layer. Security was raised at run time,")
	fmt.Println("with no restart — and Integrity/Confidentiality are in the class")
	fmt.Println("of properties the switching protocol provably preserves (§6.3).")
	return runWireAdversary()
}

// runWireAdversary is act 2: the adversary is on the wire, not in the
// group. The authenticated session seals every frame under an
// epoch-derived MAC key, so forged frames (wrong key) and cross-epoch
// replays (genuine frames, retired key) both die at the ingress.
func runWireAdversary() error {
	const members = 4
	const victim = ids.ProcID(0)
	sessionKey := []byte("group session secret (mpENC)")

	plain := func(n int) switching.ProtocolFactory {
		return func(proto.Env) []proto.Layer {
			return []proto.Layer{seqorder.New(ids.ProcID(n)), fifo.New(fifo.Config{})}
		}
	}
	cfg := switching.Hardened(sessionKey, plain(0), plain(1))
	cfg.TokenInterval = 2 * time.Millisecond
	cfg.Defense.QuarantineThreshold = 50
	cluster, err := swtest.NewSwitched(12, simnet.Config{Nodes: members, PropDelay: 300 * time.Microsecond}, members, cfg)
	if err != nil {
		return err
	}
	sim := cluster.Sim
	// The attacker's packet tap: record genuine wire frames to replay.
	cluster.Net.SetReplayCapture(64)
	// The network counts what the adversary put on the wire in the
	// events it emits; a registry tallies them.
	wireLog := obs.NewMetrics()
	cluster.Net.SetRecorder(wireLog)

	honest := func(p ids.ProcID, seq uint32, body string) {
		m := proto.AppMsg{ID: proto.MakeMsgID(p, seq), Sender: p, Body: []byte(body)}
		if err := cluster.Members[p].Switch.Cast(m.Encode()); err != nil {
			fmt.Fprintln(os.Stderr, "cast:", err)
		}
	}
	// forgeWire crafts a syntactically perfect frame — mux header, FIFO
	// cast, epoch tag, valid application message — sealed under a key
	// derived from a guessed session secret, and injects it straight
	// onto the victim's wire as if peer 2 had sent it.
	forgeWire := func(epoch uint64, seq uint64, body string) {
		app := proto.AppMsg{ID: proto.MakeMsgID(2, uint32(seq)), Sender: 2, Body: []byte(body)}
		e := wire.NewEncoder(16)
		e.Channel(ids.ProtocolChannel(int(epoch % 2)))
		e.U8(1) // FIFO cast
		e.Uvarint(seq)
		e.Uvarint(epoch)
		inner := e.Prepend(app.Encode())
		pkt := wire.SealAuth(wire.DeriveEpochKey([]byte("attacker guessed secret!"), epoch), epoch, inner)
		if err := cluster.Net.InjectForged(2, victim, pkt); err != nil {
			fmt.Fprintln(os.Stderr, "forge:", err)
		}
	}

	fmt.Println("\nact 2: adversary on the wire vs. the authenticated session")
	fmt.Println("phase 1: honest epoch-0 traffic (the attacker is capturing it)")
	sim.At(5*time.Millisecond, func() { honest(1, 1, "pay alice $5") })
	sim.At(30*time.Millisecond, func() {
		fmt.Println("phase 2: forged frames injected under a guessed key")
		forgeWire(0, 7001, "pay EVE $9999 (forged, epoch 0)")
		forgeWire(1, 7002, "pay EVE $9999 (forged, epoch 1)")
	})
	sim.At(60*time.Millisecond, func() {
		fmt.Println("phase 3: protocol switch — the epoch key rolls with it")
		cluster.Members[1].Switch.RequestSwitch()
	})
	sim.At(200*time.Millisecond, func() {
		// Well past the grace window for epoch 0: every captured epoch-0
		// frame — genuine bytes, correct MAC under the retired key — is
		// now a cross-epoch replay.
		n := cluster.Net.CapturedFrames()
		if n > 8 {
			n = 8
		}
		fmt.Printf("phase 4: replaying %d captured epoch-0 frames after the switch\n", n)
		for i := 0; i < n; i++ {
			if err := cluster.Net.InjectReplay(i); err != nil {
				fmt.Fprintln(os.Stderr, "replay:", err)
			}
		}
		honest(1, 2, "pay bob $7")
	})
	cluster.Run(2 * time.Second)
	cluster.Stop()

	for p := 0; p < members; p++ {
		bodies, err := cluster.AppBodies(ids.ProcID(p))
		if err != nil {
			return err
		}
		seen := map[string]int{}
		for _, b := range bodies {
			seen[b]++
			if strings.Contains(b, "EVE") {
				return fmt.Errorf("member %d delivered a forged payment: %q", p, b)
			}
			if seen[b] > 1 {
				return fmt.Errorf("member %d delivered %q twice — a replay got through", p, b)
			}
		}
		for _, want := range []string{"pay alice $5", "pay bob $7"} {
			if seen[want] != 1 {
				return fmt.Errorf("member %d lost honest traffic %q: %v", p, want, bodies)
			}
		}
	}
	var rejected uint64
	for p := 0; p < members; p++ {
		rejected += cluster.Members[p].Switch.Stats().AuthFailed
	}
	var forged, replayed uint64
	for _, p := range wireLog.Procs() {
		forged += wireLog.Count(p, obs.EvForged)
		replayed += wireLog.Count(p, obs.EvReplayed)
	}
	fmt.Printf("\nevery ledger is clean: %d forged and %d replayed frames hit the\n", forged, replayed)
	fmt.Printf("wire; %d arrivals were rejected at the authenticated ingress\n", rejected)
	fmt.Println("(bad MAC or retired epoch) before touching any protocol state.")
	if rejected < forged+replayed {
		return fmt.Errorf("only %d of %d adversarial frames were rejected at the auth boundary",
			rejected, forged+replayed)
	}
	return nil
}
