package wire

import (
	"math/rand"
	"testing"
)

// TestSparesReuseMostRecent: Get hands back the most recently returned
// buffer, empty, when it is large enough, and a new one otherwise.
func TestSparesReuseMostRecent(t *testing.T) {
	var s Spares
	a := s.Get(16)
	if len(a) != 0 || cap(a) < 16 {
		t.Fatalf("Get(16) on an empty stack = len %d cap %d", len(a), cap(a))
	}
	a = append(a, "sixteen bytes..."...)
	b := append(s.Get(32), "x"...)
	s.Put(a)
	s.Put(b)
	if got := s.Get(8); len(got) != 0 || &got[:1][0] != &b[0] {
		t.Error("Get(8) did not reuse the buffer returned last")
	}
	if got := s.Get(64); cap(got) < 64 || s.Len() != 0 {
		t.Errorf("Get(64) past a 16-byte spare: cap %d, %d spares left (the small one is dropped)", cap(got), s.Len())
	}
	s.Put(make([]byte, 0, maxSpare+1))
	s.Put(nil)
	if s.Len() != 0 {
		t.Errorf("an oversized and an empty buffer were kept: %d spares", s.Len())
	}
}

// TestSparesWithinOwnersHighWater: under random takes and returns of
// random sizes, the stack never holds more buffers than its owner ever
// held at one time — together, held and spare never exceed it.
func TestSparesWithinOwnersHighWater(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Spares
	var held [][]byte
	highWater := 0
	for i := 0; i < 20000; i++ {
		if len(held) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(held))
			s.Put(held[k])
			held = append(held[:k], held[k+1:]...)
		} else {
			held = append(held, s.Get(1+rng.Intn(200)))
			highWater = max(highWater, len(held))
		}
		if len(held)+s.Len() > highWater {
			t.Fatalf("step %d: %d spares beside %d held, high-water %d", i, s.Len(), len(held), highWater)
		}
	}
}

// TestSparesSteadyStateAllocs: a take and return of a buffer that fits
// allocates nothing.
func TestSparesSteadyStateAllocs(t *testing.T) {
	var s Spares
	if got := testing.AllocsPerRun(1000, func() {
		b := s.Get(100)
		s.Put(append(b, make([]byte, 100)...))
	}); got != 0 {
		t.Errorf("Get+Put allocates %v, want 0", got)
	}
}
