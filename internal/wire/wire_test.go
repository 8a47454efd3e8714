package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

func TestRoundTripScalars(t *testing.T) {
	e := NewEncoder(64)
	e.U8(7).Uvarint(1 << 40).Varint(-12345).Bool(true).Bool(false)
	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := d.Uvarint(); got != 1<<40 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := d.Varint(); got != -12345 {
		t.Errorf("Varint = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if d.Err() != nil {
		t.Errorf("Err = %v", d.Err())
	}
	if len(d.Remaining()) != 0 {
		t.Errorf("Remaining = %d bytes", len(d.Remaining()))
	}
}

func TestRoundTripComposites(t *testing.T) {
	procs := []ids.ProcID{0, 3, 7}
	counts := []uint64{0, 10, 1 << 50}
	e := NewEncoder(0)
	e.BytesField([]byte("payload")).String("str").
		Proc(5).Msg(99).Channel(3).Procs(procs).Counts(counts)
	d := NewDecoder(e.Bytes())
	if got := d.BytesField(); string(got) != "payload" {
		t.Errorf("BytesField = %q", got)
	}
	if got := d.String(); got != "str" {
		t.Errorf("String = %q", got)
	}
	if got := d.Proc(); got != 5 {
		t.Errorf("Proc = %v", got)
	}
	if got := d.Msg(); got != 99 {
		t.Errorf("Msg = %v", got)
	}
	if got := d.Channel(); got != 3 {
		t.Errorf("Channel = %v", got)
	}
	if got := d.Procs(); !reflect.DeepEqual(got, procs) {
		t.Errorf("Procs = %v", got)
	}
	if got := d.Counts(); !reflect.DeepEqual(got, counts) {
		t.Errorf("Counts = %v", got)
	}
	if d.Err() != nil {
		t.Errorf("Err = %v", d.Err())
	}
}

func TestEmptyCollections(t *testing.T) {
	e := NewEncoder(0)
	e.Procs(nil).Counts(nil).BytesField(nil)
	d := NewDecoder(e.Bytes())
	if got := d.Procs(); len(got) != 0 {
		t.Errorf("empty Procs = %v", got)
	}
	if got := d.Counts(); len(got) != 0 {
		t.Errorf("empty Counts = %v", got)
	}
	if got := d.BytesField(); len(got) != 0 {
		t.Errorf("empty BytesField = %v", got)
	}
	if d.Err() != nil {
		t.Errorf("Err = %v", d.Err())
	}
}

func TestPrepend(t *testing.T) {
	e := NewEncoder(0)
	e.U8(1).U8(2)
	payload := []byte{9, 9}
	out := e.Prepend(payload)
	if !bytes.Equal(out, []byte{1, 2, 9, 9}) {
		t.Errorf("Prepend = %v", out)
	}
	// The result must not alias the payload.
	out[2] = 0
	if payload[0] != 9 {
		t.Error("Prepend aliased the payload")
	}
}

func TestRemainingAfterHeader(t *testing.T) {
	e := NewEncoder(0)
	e.Uvarint(42)
	full := e.Prepend([]byte("rest"))
	d := NewDecoder(full)
	if got := d.Uvarint(); got != 42 {
		t.Fatalf("header = %d", got)
	}
	if string(d.Remaining()) != "rest" {
		t.Errorf("Remaining = %q", d.Remaining())
	}
}

func TestTruncationSticky(t *testing.T) {
	d := NewDecoder([]byte{})
	_ = d.U8()
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("Err = %v, want ErrTruncated", d.Err())
	}
	// Error is sticky: subsequent reads return zero values and keep err.
	if d.Uvarint() != 0 || d.Varint() != 0 || d.Bool() || d.BytesField() != nil {
		t.Error("reads after error returned non-zero values")
	}
	if d.Remaining() != nil {
		t.Error("Remaining after error should be nil")
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Error("error not sticky")
	}
}

func TestLengthPrefixGuards(t *testing.T) {
	// BytesField whose prefix claims more than available.
	e := NewEncoder(0)
	e.Uvarint(1000)
	d := NewDecoder(e.Bytes())
	if d.BytesField() != nil || !errors.Is(d.Err(), ErrTooLong) {
		t.Errorf("oversized BytesField: got err %v", d.Err())
	}
	// Procs with an absurd count.
	e = NewEncoder(0)
	e.Uvarint(1 << 50)
	d = NewDecoder(e.Bytes())
	if d.Procs() != nil || !errors.Is(d.Err(), ErrTooLong) {
		t.Errorf("oversized Procs: got err %v", d.Err())
	}
	// Counts with an absurd count.
	d = NewDecoder(e.Bytes())
	if d.Counts() != nil || !errors.Is(d.Err(), ErrTooLong) {
		t.Errorf("oversized Counts: got err %v", d.Err())
	}
}

func TestTruncatedCollections(t *testing.T) {
	e := NewEncoder(0)
	e.Procs([]ids.ProcID{1, 2, 3})
	b := e.Bytes()
	d := NewDecoder(b[:len(b)-1])
	if d.Procs() != nil || d.Err() == nil {
		t.Error("truncated Procs decoded without error")
	}
	e = NewEncoder(0)
	e.Counts([]uint64{300, 300, 300})
	b = e.Bytes()
	d = NewDecoder(b[:len(b)-1])
	if d.Counts() != nil || d.Err() == nil {
		t.Error("truncated Counts decoded without error")
	}
}

func TestChannelRangeGuard(t *testing.T) {
	e := NewEncoder(0)
	e.Uvarint(1 << 20)
	d := NewDecoder(e.Bytes())
	_ = d.Channel()
	if d.Err() == nil {
		t.Error("out-of-range channel decoded without error")
	}
}

func TestNegativeProcRoundTrip(t *testing.T) {
	e := NewEncoder(0)
	e.Proc(ids.Nobody)
	d := NewDecoder(e.Bytes())
	if got := d.Proc(); got != ids.Nobody {
		t.Errorf("Proc(Nobody) round trip = %v", got)
	}
}

// BytesField hands out a view, not a copy: it aliases the buffer, and
// its capacity stops at its own last byte, so a caller's append cannot
// scribble on the field behind it.
func TestBytesFieldIsClippedView(t *testing.T) {
	e := NewEncoder(0)
	e.BytesField([]byte("abc")).BytesField(nil).BytesField([]byte("next"))
	buf := e.Bytes()
	d := NewDecoder(buf)
	got := d.BytesField()
	if string(got) != "abc" || cap(got) != len(got) {
		t.Fatalf("BytesField = %q, len %d cap %d; want \"abc\" with cap == len", got, len(got), cap(got))
	}
	if &got[0] != &buf[1] {
		t.Error("BytesField copied: the result does not alias the decoder's buffer")
	}
	_ = append(got, "XXXXXX"...)
	if empty := d.BytesField(); empty != nil || d.Err() != nil {
		t.Errorf("zero-length field = %v, err %v; want nil, nil", empty, d.Err())
	}
	if next := d.BytesField(); string(next) != "next" || d.Err() != nil || len(d.Remaining()) != 0 {
		t.Errorf("field after an append to its neighbour = %q, err %v", next, d.Err())
	}
}

// Property: any sequence of uvarints round-trips.
func TestUvarintRoundTripProperty(t *testing.T) {
	f := func(vals []uint64) bool {
		e := NewEncoder(0)
		for _, v := range vals {
			e.Uvarint(v)
		}
		d := NewDecoder(e.Bytes())
		for _, v := range vals {
			if d.Uvarint() != v {
				return false
			}
		}
		return d.Err() == nil && len(d.Remaining()) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: arbitrary byte strings survive length-prefixed round trips.
func TestBytesRoundTripProperty(t *testing.T) {
	f := func(chunks [][]byte) bool {
		e := NewEncoder(0)
		for _, c := range chunks {
			e.BytesField(c)
		}
		d := NewDecoder(e.Bytes())
		for _, c := range chunks {
			if !bytes.Equal(d.BytesField(), c) {
				return false
			}
		}
		return d.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: decoding random garbage never panics; it either succeeds or
// sets a sticky error.
func TestDecoderRobustnessProperty(t *testing.T) {
	f := func(garbage []byte) bool {
		d := NewDecoder(garbage)
		_ = d.Uvarint()
		_ = d.Procs()
		_ = d.BytesField()
		_ = d.Counts()
		_ = d.Remaining()
		return true // reaching here without panic is the property
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncoderLen(t *testing.T) {
	e := NewEncoder(0)
	if e.Len() != 0 {
		t.Error("fresh encoder non-empty")
	}
	e.U8(1)
	if e.Len() != 1 {
		t.Errorf("Len = %d, want 1", e.Len())
	}
}
