package ids

import (
	"testing"
	"testing/quick"
)

func TestProcIDString(t *testing.T) {
	cases := []struct {
		p    ProcID
		want string
	}{
		{0, "p0"},
		{7, "p7"},
		{Nobody, "p?"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("ProcID(%d).String() = %q, want %q", c.p, got, c.want)
		}
	}
}

func TestProcIDValid(t *testing.T) {
	if Nobody.Valid() {
		t.Error("Nobody.Valid() = true, want false")
	}
	if !ProcID(0).Valid() {
		t.Error("ProcID(0).Valid() = false, want true")
	}
}

func TestMsgIDString(t *testing.T) {
	if got := MsgID(42).String(); got != "m42" {
		t.Errorf("MsgID(42).String() = %q, want m42", got)
	}
}

func TestChannelIDString(t *testing.T) {
	if got := ControlChannel.String(); got != "ch0" {
		t.Errorf("ControlChannel.String() = %q, want ch0", got)
	}
}

func TestProtocolChannel(t *testing.T) {
	if ProtocolChannel(0) == ControlChannel || ProtocolChannel(0) == AppChannel {
		t.Error("ProtocolChannel(0) collides with a reserved channel")
	}
	if ProtocolChannel(0) == ProtocolChannel(1) {
		t.Error("consecutive protocol channels collide")
	}
}

func TestNewRingErrors(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("NewRing(nil) succeeded, want error")
	}
	if _, err := NewRing([]ProcID{1, 2, 1}); err == nil {
		t.Error("NewRing with duplicate succeeded, want error")
	}
	if _, err := NewRing([]ProcID{0, Nobody}); err == nil {
		t.Error("NewRing with Nobody succeeded, want error")
	}
}

func TestRingCopiesInput(t *testing.T) {
	in := []ProcID{0, 1, 2}
	r, err := NewRing(in)
	if err != nil {
		t.Fatal(err)
	}
	in[0] = 99
	if got := r.Members()[0]; got != 0 {
		t.Errorf("ring aliased caller slice: members[0] = %v, want p0", got)
	}
}

func TestRingSuccessorPredecessor(t *testing.T) {
	r, err := NewRing([]ProcID{3, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	succ := map[ProcID]ProcID{3: 1, 1: 4, 4: 3}
	for p, want := range succ {
		got, err := r.Successor(p)
		if err != nil {
			t.Fatalf("Successor(%v): %v", p, err)
		}
		if got != want {
			t.Errorf("Successor(%v) = %v, want %v", p, got, want)
		}
	}
	if _, err := r.Successor(9); err == nil {
		t.Error("Successor(non-member) succeeded, want error")
	}
}

func TestRingContainsPosition(t *testing.T) {
	r, err := NewRing(Procs(3))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Contains(2) || r.Contains(3) {
		t.Error("Contains gave wrong membership answer")
	}
	if r.Position(2) != 2 || r.Position(7) != -1 {
		t.Error("Position gave wrong index")
	}
}

func TestProcs(t *testing.T) {
	got := Procs(3)
	want := []ProcID{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("Procs(3) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Procs(3) = %v, want %v", got, want)
		}
	}
}

// Property: walking the ring Size() times from any member returns to it,
// and visits each member exactly once.
func TestRingRotationProperty(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed%9) + 2 // group sizes 2..10
		r, err := NewRing(Procs(n))
		if err != nil {
			return false
		}
		start := ProcID(int(seed) % n)
		seen := map[ProcID]bool{}
		cur := start
		for i := 0; i < n; i++ {
			if seen[cur] {
				return false
			}
			seen[cur] = true
			next, err := r.Successor(cur)
			if err != nil {
				return false
			}
			cur = next
		}
		return cur == start && len(seen) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRingSparseMembership: a ring whose ids are neither 0-based nor in
// order answers every lookup by ring position, not by id, and treats
// the gaps between its ids as non-members.
func TestRingSparseMembership(t *testing.T) {
	r, err := NewRing([]ProcID{5, 2, 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []ProcID{5, 2, 9} {
		if got := r.Position(p); got != i {
			t.Errorf("Position(%v) = %d, want %d", p, got, i)
		}
		if !r.Contains(p) {
			t.Errorf("Contains(%v) = false", p)
		}
	}
	for _, p := range []ProcID{0, 1, 3, 10, Nobody} {
		if r.Contains(p) || r.Position(p) != -1 {
			t.Errorf("non-member %v: Contains %v, Position %d", p, r.Contains(p), r.Position(p))
		}
		if _, err := r.Successor(p); err == nil {
			t.Errorf("Successor(%v) succeeded for a non-member", p)
		}
	}
	for p, want := range map[ProcID]ProcID{5: 2, 2: 9, 9: 5} {
		if got, err := r.Successor(p); err != nil || got != want {
			t.Errorf("Successor(%v) = %v, %v; want %v", p, got, err, want)
		}
	}
	if _, err := NewRing([]ProcID{5, 2, 5}); err == nil {
		t.Error("NewRing with a duplicate among sparse ids succeeded, want error")
	}
}
