package simnet

import (
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/obs"
)

// TestLinkFaultsAreAsymmetric pins the directed-link override: a 100%
// drop (well, 0.999…) on 0→1 kills that direction while 1→0 and 0→2
// stay clean, and clearing the override restores delivery.
func TestLinkFaultsAreAsymmetric(t *testing.T) {
	cfg := Config{Nodes: 3, PropDelay: time.Millisecond}
	sim, net := newNet(t, cfg)
	m := counted(net)
	at1 := collect(t, sim, net, 1)
	at0 := collect(t, sim, net, 0)
	at2 := collect(t, sim, net, 2)
	if err := net.SetLinkFaults(0, 1, 0.999999, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := net.Unicast(0, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := net.Unicast(1, 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if err := net.Unicast(0, 2, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(*at1) > 2 {
		t.Errorf("faulted direction delivered %d of 50", len(*at1))
	}
	if len(*at0) != 50 || len(*at2) != 50 {
		t.Errorf("clean directions lost traffic: 1→0 %d, 0→2 %d", len(*at0), len(*at2))
	}
	// All-zero clears the override.
	if err := net.SetLinkFaults(0, 1, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	before := len(*at1)
	for i := 0; i < 20; i++ {
		if err := net.Unicast(0, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(*at1)-before != 20 {
		t.Errorf("cleared link still lossy: %d of 20 delivered", len(*at1)-before)
	}
	if total(m, obs.EvLinkFaultSet) != 2 {
		t.Errorf("link fault sets = %d, want 2", total(m, obs.EvLinkFaultSet))
	}
	if err := net.SetLinkFaults(0, 1, 1.5, 0, 0); err == nil {
		t.Error("SetLinkFaults accepted drop probability 1.5")
	}
	if err := net.SetLinkFaults(0, 1, 0, 0, -time.Second); err == nil {
		t.Error("SetLinkFaults accepted negative extra delay")
	}
}

// TestLinkExtraDelayShiftsArrival pins the deterministic half of the
// asymmetric link: the fixed extra delay moves arrivals without any
// RNG draw, so delivery stays exact.
func TestLinkExtraDelayShiftsArrival(t *testing.T) {
	cfg := Config{Nodes: 2, PropDelay: time.Millisecond}
	sim, net := newNet(t, cfg)
	log := collect(t, sim, net, 1)
	if err := net.SetLinkFaults(0, 1, 0, 0, 3*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := net.Unicast(0, 1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(*log) != 1 || (*log)[0].at != 4*time.Millisecond {
		t.Errorf("delivery = %+v, want one arrival at 4ms", *log)
	}
}

// TestSlowNodeStretchesCPU pins KindSlowNode's substrate: a factor-4
// slow node pays 4× its per-packet CPU charges, and factor 1 restores
// full speed.
func TestSlowNodeStretchesCPU(t *testing.T) {
	cfg := Config{Nodes: 2, PropDelay: time.Millisecond, RecvCPU: 2 * time.Millisecond}
	sim, net := newNet(t, cfg)
	m := counted(net)
	log := collect(t, sim, net, 1)
	if err := net.SetSlowNode(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := net.Unicast(0, 1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	// prop 1ms + 4×2ms recv CPU.
	if len(*log) != 1 || (*log)[0].at != 9*time.Millisecond {
		t.Errorf("slow delivery = %+v, want one arrival at 9ms", *log)
	}
	if err := net.SetSlowNode(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := net.Unicast(0, 1, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	// prop 1ms + 2ms recv CPU after the earlier completion.
	if len(*log) != 2 {
		t.Fatalf("restored node did not deliver")
	}
	if got := (*log)[1].at - (*log)[0].at; got != 3*time.Millisecond {
		t.Errorf("restored delivery lag = %v, want 3ms", got)
	}
	if total(m, obs.EvSlowNodeSet) != 2 {
		t.Errorf("slow node sets = %d, want 2", total(m, obs.EvSlowNodeSet))
	}
	if err := net.SetSlowNode(1, 0); err == nil {
		t.Error("SetSlowNode accepted factor 0")
	}
}

// TestFlappingTogglesAndHeals pins KindFlap's substrate: the directed
// link blocks immediately, alternates every period, and the final
// toggle at the window edge leaves the link open; a superseding call
// cancels the earlier cadence.
func TestFlappingTogglesAndHeals(t *testing.T) {
	cfg := Config{Nodes: 2, PropDelay: time.Microsecond}
	sim := des.New(1)
	net, err := New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := counted(net)
	var got []time.Duration
	if err := net.Bind(1, func(_ ids.ProcID, _ []byte) {
		got = append(got, sim.Now())
	}); err != nil {
		t.Fatal(err)
	}
	period := 10 * time.Millisecond
	start := 5 * time.Millisecond
	sim.At(start, func() {
		if err := net.SetFlapping(0, 1, period, start+35*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	// One probe per millisecond across the whole window and past it,
	// offset half a millisecond so no probe lands exactly on a toggle
	// edge (same-instant DES ordering would make the phase ambiguous).
	for i := 0; i < 60; i++ {
		at := time.Duration(i)*time.Millisecond + 500*time.Microsecond
		sim.At(at, func() { _ = net.Unicast(0, 1, []byte{1}) })
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	inWindow := func(at, lo, hi time.Duration) bool { return at >= lo && at < hi }
	var blockedPhase, openPhase, afterHeal int
	for _, at := range got {
		switch {
		case inWindow(at, start, start+period), inWindow(at, start+2*period, start+3*period):
			blockedPhase++
		case inWindow(at, start+period, start+2*period), inWindow(at, start+3*period, start+35*time.Millisecond):
			openPhase++
		case at >= start+35*time.Millisecond:
			afterHeal++
		}
	}
	if blockedPhase != 0 {
		t.Errorf("%d deliveries during blocked phases", blockedPhase)
	}
	if openPhase == 0 {
		t.Error("no deliveries during open phases — the flap never reopened")
	}
	if afterHeal == 0 {
		t.Error("no deliveries after the window — the final toggle did not heal the link")
	}
	if total(m, obs.EvFlapSet) == 0 {
		t.Error("flap sets never counted")
	}
	if err := net.SetFlapping(0, 1, -time.Second, time.Second); err == nil {
		t.Error("SetFlapping accepted a negative period")
	}
}

// TestFlappingSuperseded pins the epoch guard: a second SetFlapping on
// the same link cancels the first cadence's pending toggles, and a
// zero period cancels flapping outright (leaving the link open).
func TestFlappingSuperseded(t *testing.T) {
	cfg := Config{Nodes: 2, PropDelay: time.Microsecond}
	sim := des.New(1)
	net, err := New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []time.Duration
	if err := net.Bind(1, func(_ ids.ProcID, _ []byte) {
		got = append(got, sim.Now())
	}); err != nil {
		t.Fatal(err)
	}
	sim.At(time.Millisecond, func() {
		if err := net.SetFlapping(0, 1, 5*time.Millisecond, 100*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	// Cancel at 2ms — inside the first blocked phase.
	sim.At(2*time.Millisecond, func() {
		if err := net.SetFlapping(0, 1, 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	for i := 0; i < 20; i++ {
		at := time.Duration(i) * time.Millisecond
		sim.At(at, func() { _ = net.Unicast(0, 1, []byte{1}) })
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	var afterCancel int
	for _, at := range got {
		if at > 2500*time.Microsecond {
			afterCancel++
		}
	}
	if afterCancel != 17 {
		t.Errorf("cancelled flap still losing traffic: %d of 17 delivered after cancel", afterCancel)
	}
}
