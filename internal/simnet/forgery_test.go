package simnet

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestInjectForgedDeliversCrafted(t *testing.T) {
	cfg := Config{Nodes: 2, PropDelay: time.Millisecond}
	sim, net := newNet(t, cfg)
	m := counted(net)
	got := collect(t, sim, net, 1)
	frame := []byte("crafted-but-unkeyed frame")
	if err := net.InjectForged(0, 1, frame); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 || !bytes.Equal((*got)[0].b, frame) || (*got)[0].src != 0 {
		t.Fatalf("got %v", *got)
	}
	if (*got)[0].at != time.Millisecond {
		t.Errorf("forged frame arrived at %v, want prop delay %v", (*got)[0].at, time.Millisecond)
	}
	if n := m.Count(1, obs.EvForged); n != 1 {
		t.Errorf("forged events = %d, want 1", n)
	}
}

func TestInjectForgedValidation(t *testing.T) {
	_, net := newNet(t, Config{Nodes: 2})
	if err := net.InjectForged(0, 5, []byte("x")); err == nil {
		t.Error("out-of-range dst accepted")
	}
	if err := net.InjectForged(0, 1, nil); err == nil {
		t.Error("empty forged frame accepted")
	}
}

func TestReplayCaptureAndInject(t *testing.T) {
	cfg := Config{Nodes: 2, PropDelay: time.Millisecond}
	sim, net := newNet(t, cfg)
	m := counted(net)
	got := collect(t, sim, net, 1)
	net.SetReplayCapture(8)
	if err := net.Unicast(0, 1, []byte("genuine")); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if net.CapturedFrames() != 1 {
		t.Fatalf("captured %d frames, want 1", net.CapturedFrames())
	}
	if err := net.InjectReplay(0); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 2 || !bytes.Equal((*got)[1].b, []byte("genuine")) || (*got)[1].src != 0 {
		t.Fatalf("replay delivery wrong: %v", *got)
	}
	if n := m.Count(1, obs.EvReplayed); n != 1 {
		t.Errorf("replayed events = %d, want 1", n)
	}
	if err := net.InjectReplay(5); err == nil {
		t.Error("out-of-range replay index accepted")
	}
}

// TestReplayOfARecycledFrame: the tap pins what it captures. A frame is
// captured and delivered, then frames of the same size class run through
// the network — enough to reuse any buffer given back — and the replay
// still delivers the bytes the sender put on the wire.
func TestReplayOfARecycledFrame(t *testing.T) {
	sim, net := newNet(t, Config{Nodes: 2, PropDelay: time.Millisecond})
	got := collect(t, sim, net, 1)
	net.SetReplayCapture(1)
	genuine := []byte("genuine frame, captured once")
	if err := net.Unicast(0, 1, genuine); err != nil {
		t.Fatal(err)
	}
	drain(sim)
	other := bytes.Repeat([]byte{0xEE}, len(genuine))
	for i := 0; i < 8; i++ {
		if err := net.Unicast(0, 1, other); err != nil {
			t.Fatal(err)
		}
	}
	drain(sim)
	if err := net.InjectReplay(0); err != nil {
		t.Fatal(err)
	}
	drain(sim)
	if len(*got) != 10 {
		t.Fatalf("%d deliveries, want the frame, 8 others and the replay", len(*got))
	}
	if replay := (*got)[9]; !bytes.Equal(replay.b, genuine) || replay.src != 0 {
		t.Errorf("replay delivered %q from %v, want the captured %q from 0", replay.b, replay.src, genuine)
	}
}

func TestReplayCaptureBounded(t *testing.T) {
	sim, net := newNet(t, Config{Nodes: 2})
	collect(t, sim, net, 1)
	net.SetReplayCapture(2)
	for i := 0; i < 5; i++ {
		if err := net.Unicast(0, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if net.CapturedFrames() != 2 {
		t.Errorf("captured %d frames, want cap of 2", net.CapturedFrames())
	}
	net.SetReplayCapture(0)
	if net.CapturedFrames() != 0 {
		t.Error("disabling capture did not discard the buffer")
	}
}

// TestReplayCaptureRecordsPreFault: the tap sees the sender's bytes
// even when the receiver-side fault model corrupts the delivery.
func TestReplayCaptureRecordsPreFault(t *testing.T) {
	sim, net := newNet(t, Config{Nodes: 2})
	if err := net.SetCorruption(0.999999, 0); err != nil {
		t.Fatal(err)
	}
	collect(t, sim, net, 1)
	net.SetReplayCapture(1)
	orig := []byte("pristine payload bytes")
	if err := net.Unicast(0, 1, orig); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if net.CapturedFrames() != 1 {
		t.Fatalf("captured %d frames, want 1", net.CapturedFrames())
	}
	if !bytes.Equal(net.captured[0].f.b, orig) {
		t.Error("capture recorded post-corruption bytes")
	}
}

// TestCaptureConsumesNoRNG: two identical runs, one with capture on,
// must produce identical delivery schedules — the tap is invisible.
func TestCaptureConsumesNoRNG(t *testing.T) {
	run := func(capture bool) []rcvd {
		sim, net := newNet(t, Config{Nodes: 2, PropDelay: time.Millisecond})
		if err := net.SetFaults(0.2, 0.2, 500*time.Microsecond); err != nil {
			t.Fatal(err)
		}
		got := collect(t, sim, net, 1)
		if capture {
			net.SetReplayCapture(64)
		}
		for i := 0; i < 32; i++ {
			if err := net.Unicast(0, 1, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sim.Run(0); err != nil {
			t.Fatal(err)
		}
		return *got
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("capture changed delivery count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].at != b[i].at || !bytes.Equal(a[i].b, b[i].b) {
			t.Fatalf("delivery %d diverged with capture on: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestForgeryObsEvents(t *testing.T) {
	sim, net := newNet(t, Config{Nodes: 2})
	collect(t, sim, net, 1)
	rec := obs.NewFlightRecorder(16)
	net.SetRecorder(rec)
	net.SetReplayCapture(1)
	if err := net.Unicast(0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := net.InjectForged(0, 1, []byte("f")); err != nil {
		t.Fatal(err)
	}
	if err := net.InjectReplay(0); err != nil {
		t.Fatal(err)
	}
	var sawForged, sawReplayed bool
	for _, e := range rec.Snapshot() {
		switch e.Type {
		case obs.EvForged:
			sawForged = true
		case obs.EvReplayed:
			sawReplayed = true
		}
	}
	if !sawForged || !sawReplayed {
		t.Errorf("missing obs events: forged=%v replayed=%v", sawForged, sawReplayed)
	}
}
