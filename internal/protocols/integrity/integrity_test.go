package integrity

import (
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/protocols/ptest"
	"repro/internal/simnet"
)

var groupKey = []byte("group-key-0123456789abcdef")

func cluster(t *testing.T, keyFor func(p ids.ProcID) []byte) ([]*Layer, *ptest.Cluster) {
	t.Helper()
	var layers []*Layer
	c, err := ptest.New(1, simnet.Config{Nodes: 3, PropDelay: time.Millisecond}, 3,
		func(env proto.Env) []proto.Layer {
			l := New(keyFor(env.Self()))
			layers = append(layers, l)
			return []proto.Layer{l}
		})
	if err != nil {
		t.Fatal(err)
	}
	return layers, c
}

func TestAuthenticCastDelivers(t *testing.T) {
	_, c := cluster(t, func(ids.ProcID) []byte { return groupKey })
	if err := c.Cast(0, []byte("trusted")); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Second)
	for p := 0; p < 3; p++ {
		if got := c.Bodies(ids.ProcID(p)); len(got) != 1 || got[0] != "trusted" {
			t.Fatalf("member %d got %v", p, got)
		}
	}
}

func TestAuthenticSendDelivers(t *testing.T) {
	_, c := cluster(t, func(ids.ProcID) []byte { return groupKey })
	if err := c.Members[0].Stack.Send(2, []byte("p2p")); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Second)
	if got := c.Bodies(2); len(got) != 1 || got[0] != "p2p" {
		t.Fatalf("got %v", got)
	}
}

func TestForgedSenderRejected(t *testing.T) {
	// Member 2 holds the wrong key: everything it sends is dropped by
	// trusted members — "messages are sent by trusted processes".
	layers, c := cluster(t, func(p ids.ProcID) []byte {
		if p == 2 {
			return []byte("wrong-key-wrong-key-wrong")
		}
		return groupKey
	})
	if err := c.Cast(2, []byte("forged")); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Second)
	if got := c.Bodies(0); len(got) != 0 {
		t.Fatalf("trusted member delivered forged message: %v", got)
	}
	if got := c.Bodies(1); len(got) != 0 {
		t.Fatalf("trusted member delivered forged message: %v", got)
	}
	if layers[0].Rejected() == 0 && layers[1].Rejected() == 0 {
		t.Error("no rejections recorded")
	}
}

func TestTamperedPayloadRejected(t *testing.T) {
	layers, c := cluster(t, func(ids.ProcID) []byte { return groupKey })
	// Build a valid sealed packet, then flip a payload byte and inject.
	sealed := layers[0].seal([]byte("original"))
	sealed[len(sealed)-1] ^= 0xff
	if err := c.Net.InjectForged(0, 1, sealed); err != nil {
		t.Fatal(err)
	}
	c.Run(time.Second)
	if got := c.Bodies(1); len(got) != 0 {
		t.Fatalf("tampered payload delivered: %v", got)
	}
	if layers[1].Rejected() != 1 {
		t.Errorf("Rejected = %d, want 1", layers[1].Rejected())
	}
}

func TestGarbageRejected(t *testing.T) {
	l := New(groupKey)
	var delivered int
	up := proto.UpFunc(func(ids.ProcID, []byte) { delivered++ })
	if err := l.Init(ptest.NewFakeEnv(0, 1), &ptest.RecordDown{}, up); err != nil {
		t.Fatal(err)
	}
	l.Recv(0, nil)
	l.Recv(0, []byte{1, 2, 3})
	if delivered != 0 {
		t.Error("garbage delivered")
	}
	if l.Rejected() != 2 {
		t.Errorf("Rejected = %d, want 2", l.Rejected())
	}
}

func TestInitValidation(t *testing.T) {
	if err := New(groupKey).Init(nil, nil, nil); err == nil {
		t.Error("Init accepted nil wiring")
	}
	if err := New(nil).Init(ptest.NewFakeEnv(0, 1), &ptest.RecordDown{}, &ptest.RecordUp{}); err == nil {
		t.Error("Init accepted empty key")
	}
}

func TestKeyIsCopied(t *testing.T) {
	key := []byte("mutable-key-mutable-key-!")
	l := New(key)
	key[0] = 'X'
	l2 := New([]byte("mutable-key-mutable-key-!"))
	a := l.seal([]byte("m"))
	b := l2.seal([]byte("m"))
	if string(a) != string(b) {
		t.Error("layer did not copy the key at construction")
	}
}
