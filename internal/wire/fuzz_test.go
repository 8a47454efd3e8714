package wire

import (
	"bytes"
	"testing"

	"repro/internal/ids"
)

// FuzzDecode drives every decoder primitive over arbitrary bytes. The
// decoder contract under fuzzing is: never panic, fail sticky (one
// error, then inert), and never hand out data past the first error.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	// A well-formed header covering every field type.
	e := NewEncoder(64)
	e.U8(3).Uvarint(1 << 40).Varint(-77).Bool(true).
		BytesField([]byte("payload")).String("name").
		Proc(ids.ProcID(5)).Msg(ids.MsgID(9)).Channel(ids.ChannelID(2)).
		Procs([]ids.ProcID{0, 1, 2}).Counts([]uint64{4, 5, 6})
	f.Add(append([]byte(nil), e.Bytes()...))
	// An enveloped frame, so the decoder walks realistic wire bytes too.
	f.Add(SealAuth(DeriveEpochKey([]byte("fuzz session"), 1), 1, []byte("sealed payload")))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		// Walk the primitives in a fixed rotation until the input is
		// exhausted or an error sticks. The op mix is arbitrary; what
		// matters is that every primitive sees adversarial offsets.
		for i := 0; d.Err() == nil && len(d.Remaining()) > 0 && i < 1024; i++ {
			switch i % 9 {
			case 0:
				d.U8()
			case 1:
				d.Uvarint()
			case 2:
				d.Varint()
			case 3:
				d.Bool()
			case 4:
				d.BytesField()
			case 5:
				_ = d.String()
			case 6:
				d.Channel()
			case 7:
				d.Procs()
			case 8:
				d.Counts()
			}
		}
		if d.Err() != nil {
			// Sticky-error contract: after a failure the decoder is
			// inert and yields no data.
			if d.Remaining() != nil {
				t.Fatal("Remaining() non-nil after decode error")
			}
			first := d.Err()
			if d.U8() != 0 || d.Uvarint() != 0 || d.BytesField() != nil {
				t.Fatal("decoder handed out data after error")
			}
			if d.Err() != first {
				t.Fatalf("error not sticky: %v replaced %v", d.Err(), first)
			}
		}
	})
}

// FuzzRoundTrip encodes fuzzer-chosen values through every encoder
// field type, decodes them back, and requires exact equality.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(0), uint64(0), int64(0), false, []byte(nil), "", int64(0), uint16(0))
	f.Add(uint8(255), uint64(1)<<63, int64(-1)<<62, true, []byte("abc"), "xyz", int64(-1), uint16(0xFFFF))
	f.Add(uint8(7), uint64(1<<40), int64(-12345), true, []byte("payload"), "name", int64(5), uint16(2))

	f.Fuzz(func(t *testing.T, u8 uint8, uv uint64, v int64, b bool, bs []byte, s string, proc int64, ch uint16) {
		e := NewEncoder(64)
		e.U8(u8).Uvarint(uv).Varint(v).Bool(b).BytesField(bs).String(s).
			Proc(ids.ProcID(proc)).Channel(ids.ChannelID(ch))
		d := NewDecoder(e.Bytes())
		if got := d.U8(); got != u8 {
			t.Fatalf("U8 = %d, want %d", got, u8)
		}
		if got := d.Uvarint(); got != uv {
			t.Fatalf("Uvarint = %d, want %d", got, uv)
		}
		if got := d.Varint(); got != v {
			t.Fatalf("Varint = %d, want %d", got, v)
		}
		if got := d.Bool(); got != b {
			t.Fatalf("Bool = %v, want %v", got, b)
		}
		if got := d.BytesField(); !bytes.Equal(got, bs) {
			t.Fatalf("BytesField = %q, want %q", got, bs)
		}
		if got := d.String(); got != s {
			t.Fatalf("String = %q, want %q", got, s)
		}
		if got := d.Proc(); got != ids.ProcID(proc) {
			t.Fatalf("Proc = %d, want %d", got, proc)
		}
		if got := d.Channel(); got != ids.ChannelID(ch) {
			t.Fatalf("Channel = %d, want %d", got, ch)
		}
		if d.Err() != nil {
			t.Fatalf("round trip erred: %v", d.Err())
		}
		if len(d.Remaining()) != 0 {
			t.Fatalf("%d bytes left after round trip", len(d.Remaining()))
		}
	})
}
