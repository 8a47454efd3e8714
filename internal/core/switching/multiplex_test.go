package switching

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/proto"
)

type recDown struct {
	casts [][]byte
	sends []struct {
		dst ids.ProcID
		b   []byte
	}
}

func (d *recDown) Cast(b []byte) error {
	d.casts = append(d.casts, append([]byte(nil), b...))
	return nil
}

func (d *recDown) Send(dst ids.ProcID, b []byte) error {
	d.sends = append(d.sends, struct {
		dst ids.ProcID
		b   []byte
	}{dst, append([]byte(nil), b...)})
	return nil
}

func TestMultiplexRouting(t *testing.T) {
	down := &recDown{}
	m, err := NewMultiplex(down)
	if err != nil {
		t.Fatal(err)
	}
	var gotA, gotB []string
	m.Bind(ids.ChannelID(2), proto.UpFunc(func(_ ids.ProcID, b []byte) { gotA = append(gotA, string(b)) }))
	m.Bind(ids.ChannelID(3), proto.UpFunc(func(_ ids.ProcID, b []byte) { gotB = append(gotB, string(b)) }))
	if err := m.Port(2).Cast([]byte("to-A")); err != nil {
		t.Fatal(err)
	}
	if err := m.Port(3).Send(1, []byte("to-B")); err != nil {
		t.Fatal(err)
	}
	// Loop the framed packets back through Recv.
	m.Recv(0, down.casts[0])
	m.Recv(0, down.sends[0].b)
	if len(gotA) != 1 || gotA[0] != "to-A" {
		t.Errorf("channel 2 got %v", gotA)
	}
	if len(gotB) != 1 || gotB[0] != "to-B" {
		t.Errorf("channel 3 got %v", gotB)
	}
	if down.sends[0].dst != 1 {
		t.Errorf("send dst = %v", down.sends[0].dst)
	}
}

func TestMultiplexUnboundChannelDropped(t *testing.T) {
	m, err := NewMultiplex(&recDown{})
	if err != nil {
		t.Fatal(err)
	}
	down := &recDown{}
	m2, err := NewMultiplex(down)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Port(9).Cast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	m.Recv(0, down.casts[0])
	if m.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", m.Dropped())
	}
}

func TestMultiplexGarbageDropped(t *testing.T) {
	m, err := NewMultiplex(&recDown{})
	if err != nil {
		t.Fatal(err)
	}
	m.Recv(0, nil)
	if m.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", m.Dropped())
	}
}

func TestMultiplexNilTransport(t *testing.T) {
	if _, err := NewMultiplex(nil); err == nil {
		t.Error("NewMultiplex accepted nil transport")
	}
}

func TestTokenRoundTrip(t *testing.T) {
	in := Token{Mode: ModeSwitch, Epoch: 42, Initiator: 3, Vector: []uint64{1, 0, 7}}
	out, err := DecodeToken(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Mode != in.Mode || out.Epoch != in.Epoch || out.Initiator != in.Initiator {
		t.Errorf("round trip = %+v", out)
	}
	if len(out.Vector) != 3 || out.Vector[2] != 7 {
		t.Errorf("vector = %v", out.Vector)
	}
}

func TestTokenDecodeErrors(t *testing.T) {
	if _, err := DecodeToken(nil); err == nil {
		t.Error("decoded empty token")
	}
	bad := Token{Mode: Mode(99), Initiator: 0}
	if _, err := DecodeToken(bad.Encode()); err == nil {
		t.Error("decoded token with invalid mode")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeNormal:  "NORMAL",
		ModePrepare: "PREPARE",
		ModeSwitch:  "SWITCH",
		ModeFlush:   "FLUSH",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode renders empty")
	}
}

func TestThresholdOracle(t *testing.T) {
	o := ThresholdOracle{Threshold: 5}
	if o.Preferred(4.9) != 0 || o.Preferred(5) != 1 || o.Preferred(100) != 1 {
		t.Error("threshold oracle misclassified")
	}
}

func TestHysteresisOracle(t *testing.T) {
	o, err := NewHysteresisOracle(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if o.Preferred(5) != 0 {
		t.Error("band value should keep initial protocol 0")
	}
	if o.Preferred(7) != 1 {
		t.Error("crossing High should pick protocol 1")
	}
	if o.Preferred(5) != 1 {
		t.Error("band value should keep protocol 1 once there")
	}
	if o.Preferred(3.9) != 0 {
		t.Error("falling below Low should return to protocol 0")
	}
}

func TestHysteresisValidation(t *testing.T) {
	if _, err := NewHysteresisOracle(7, 4); err == nil {
		t.Error("accepted inverted band")
	}
	if _, err := NewHysteresisOracle(4, 4); err == nil {
		t.Error("accepted empty band")
	}
}

func TestRecordDuration(t *testing.T) {
	r := Record{Started: 10, Finished: 25}
	if r.Duration() != 15 {
		t.Errorf("Duration = %v", r.Duration())
	}
}
