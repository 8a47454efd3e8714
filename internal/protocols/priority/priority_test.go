package priority

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/protocols/fifo"
	"repro/internal/protocols/ptest"
	"repro/internal/simnet"
)

func cluster(t *testing.T, seed int64, cfg simnet.Config, n int) *ptest.Cluster {
	t.Helper()
	c, err := ptest.New(seed, cfg, n, func(proto.Env) []proto.Layer {
		return []proto.Layer{New(0), fifo.New(fifo.Config{})}
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMasterDeliversFirst(t *testing.T) {
	cfg := simnet.Config{Nodes: 4, PropDelay: time.Millisecond}
	c := cluster(t, 3, cfg, 4)
	if err := c.Net.SetFaults(0, 0, 3*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Cast(2, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(5 * time.Second)
	// Every message must be delivered by the master strictly before any
	// non-master delivery of the same message.
	masterAt := map[string]time.Duration{}
	for _, d := range c.Members[0].Delivered {
		masterAt[string(d.Payload)] = d.At
	}
	for p := 1; p < 4; p++ {
		for _, d := range c.Members[p].Delivered {
			m, ok := masterAt[string(d.Payload)]
			if !ok {
				t.Fatalf("member %d delivered %q the master never delivered", p, d.Payload)
			}
			if d.At < m {
				t.Fatalf("member %d delivered %q at %v before master's %v", p, d.Payload, d.At, m)
			}
		}
	}
	for p := 0; p < 4; p++ {
		if got := len(c.Members[p].Delivered); got != 10 {
			t.Fatalf("member %d delivered %d, want 10", p, got)
		}
	}
}

func TestMasterAsSender(t *testing.T) {
	cfg := simnet.Config{Nodes: 3, PropDelay: time.Millisecond}
	c := cluster(t, 1, cfg, 3)
	if err := c.Cast(0, []byte("from-master")); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Second)
	for p := 0; p < 3; p++ {
		if got := c.Bodies(ids.ProcID(p)); len(got) != 1 {
			t.Fatalf("member %d got %v", p, got)
		}
	}
}

func TestReleaseBeforeDataRace(t *testing.T) {
	// Drive the layer directly: release arrives before the data.
	l := New(0)
	up := &ptest.RecordUp{}
	if err := l.Init(ptest.NewFakeEnv(1, 2), &ptest.RecordDown{}, up); err != nil {
		t.Fatal(err)
	}
	// Build the release packet the master would send for "x".
	master := New(0)
	masterDown := &ptest.RecordDown{}
	if err := master.Init(ptest.NewFakeEnv(0, 2), masterDown, &ptest.RecordUp{}); err != nil {
		t.Fatal(err)
	}
	var dataPkt []byte
	{
		d := &ptest.RecordDown{}
		sender := New(0)
		if err := sender.Init(ptest.NewFakeEnv(1, 2), d, &ptest.RecordUp{}); err != nil {
			t.Fatal(err)
		}
		if err := sender.Cast([]byte("x")); err != nil {
			t.Fatal(err)
		}
		dataPkt = d.Casts[0]
	}
	master.Recv(1, dataPkt) // master delivers, emits release
	release := masterDown.Casts[0]
	l.Recv(0, release) // release first
	if len(up.Deliveries) != 0 {
		t.Fatal("delivered before data arrived")
	}
	l.Recv(1, dataPkt) // then data
	if len(up.Deliveries) != 1 || string(up.Deliveries[0].Payload) != "x" {
		t.Fatalf("deliveries = %v", up.Bodies())
	}
}

func TestNonMasterReleaseIgnored(t *testing.T) {
	l := New(0)
	up := &ptest.RecordUp{}
	if err := l.Init(ptest.NewFakeEnv(1, 3), &ptest.RecordDown{}, up); err != nil {
		t.Fatal(err)
	}
	// Data from p2 held for release.
	sender := New(0)
	d := &ptest.RecordDown{}
	if err := sender.Init(ptest.NewFakeEnv(2, 3), d, &ptest.RecordUp{}); err != nil {
		t.Fatal(err)
	}
	if err := sender.Cast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	l.Recv(2, d.Casts[0])
	if l.Waiting() != 1 {
		t.Fatal("data not held")
	}
	// A forged release from a non-master (p2) must be ignored.
	master := New(0)
	md := &ptest.RecordDown{}
	if err := master.Init(ptest.NewFakeEnv(0, 3), md, &ptest.RecordUp{}); err != nil {
		t.Fatal(err)
	}
	master.Recv(2, d.Casts[0])
	forged := md.Casts[0]
	l.Recv(2, forged) // src is 2, not the master
	if len(up.Deliveries) != 0 {
		t.Error("forged release accepted")
	}
	l.Recv(0, forged) // genuine master release
	if len(up.Deliveries) != 1 {
		t.Error("genuine release rejected")
	}
}

func TestInitValidation(t *testing.T) {
	if err := New(0).Init(nil, nil, nil); err == nil {
		t.Error("Init accepted nil wiring")
	}
	if err := New(9).Init(ptest.NewFakeEnv(0, 2), &ptest.RecordDown{}, &ptest.RecordUp{}); err == nil {
		t.Error("Init accepted master outside the group")
	}
}

func TestSendUnsupported(t *testing.T) {
	if err := New(0).Send(1, nil); err != proto.ErrUnsupported {
		t.Error("Send should be unsupported")
	}
}

func TestGarbageIgnored(t *testing.T) {
	l := New(0)
	up := &ptest.RecordUp{}
	if err := l.Init(ptest.NewFakeEnv(1, 2), &ptest.RecordDown{}, up); err != nil {
		t.Fatal(err)
	}
	l.Recv(0, nil)
	l.Recv(0, []byte{kindRelease, 3, 1, 2, 3}) // bad digest length
	l.Recv(0, []byte{99})
	if len(up.Deliveries) != 0 || l.Waiting() != 0 {
		t.Error("garbage affected state")
	}
}
