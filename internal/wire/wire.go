// Package wire provides the binary header encoding used between protocol
// layers. Layers exchange raw bytes (exactly as the Horus/Ensemble stacks
// the paper builds on did): on the way down each layer prepends its own
// header, on the way up it strips it. Working on real bytes is what lets
// the integrity layer MAC, and the confidentiality layer encrypt, the
// entire stack beneath them.
//
// The Encoder appends fields; the Decoder consumes them with a sticky
// error, so call sites read a whole header and check Err() once.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ids"
)

// ErrTruncated is returned (via Decoder.Err) when a read runs past the
// end of the buffer.
var ErrTruncated = errors.New("wire: truncated input")

// ErrTooLong is returned when a length prefix exceeds the remaining
// input (corruption guard).
var ErrTooLong = errors.New("wire: length prefix exceeds input")

// ErrOverflow is returned when a varint encodes more than 64 bits —
// only corrupted or adversarial input produces one.
var ErrOverflow = errors.New("wire: varint overflow")

// Encoder accumulates an encoded header. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity preallocated.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// MaxHeader bounds the header one layer puts in front of a payload: a
// kind byte and two varints. An owner that frames a payload asks its
// Spares for MaxHeader more than the payload, so the frame fits.
const MaxHeader = 1 + 2*binary.MaxVarintLen64

// EncodeInto returns an encoder that appends to buf, emptied: a buffer
// its owner keeps, from its Spares or a fixed header array. While buf
// is large enough the encoder writes in place and allocates nothing.
func EncodeInto(buf []byte) Encoder { return Encoder{buf: buf[:0]} }

// Bytes returns the encoded bytes. The slice aliases the encoder's
// buffer; callers must not retain it across further writes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends a byte.
func (e *Encoder) U8(v uint8) *Encoder {
	e.buf = append(e.buf, v)
	return e
}

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) *Encoder {
	e.buf = binary.AppendUvarint(e.buf, v)
	return e
}

// Varint appends a signed varint (zig-zag).
func (e *Encoder) Varint(v int64) *Encoder {
	e.buf = binary.AppendVarint(e.buf, v)
	return e
}

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) *Encoder {
	if v {
		return e.U8(1)
	}
	return e.U8(0)
}

// Bytes appends a length-prefixed byte string.
func (e *Encoder) BytesField(b []byte) *Encoder {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) *Encoder {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
	return e
}

// Proc appends a process id.
func (e *Encoder) Proc(p ids.ProcID) *Encoder { return e.Varint(int64(p)) }

// Msg appends a message id.
func (e *Encoder) Msg(m ids.MsgID) *Encoder { return e.Uvarint(uint64(m)) }

// Channel appends a channel id.
func (e *Encoder) Channel(c ids.ChannelID) *Encoder { return e.Uvarint(uint64(c)) }

// Procs appends a length-prefixed list of process ids.
func (e *Encoder) Procs(ps []ids.ProcID) *Encoder {
	e.Uvarint(uint64(len(ps)))
	for _, p := range ps {
		e.Proc(p)
	}
	return e
}

// Counts appends a length-prefixed list of counters (the switching
// protocol's send-count vector).
func (e *Encoder) Counts(cs []uint64) *Encoder {
	e.Uvarint(uint64(len(cs)))
	for _, c := range cs {
		e.Uvarint(c)
	}
	return e
}

// Prepend returns header ++ payload as a fresh slice: the canonical
// "push my header" operation on the way down a stack. The result is
// independently owned, so it is safe to retain (retransmission
// buffers); hot paths that hand the frame straight to a transport
// should use Frame instead, which skips the extra copy.
func (e *Encoder) Prepend(payload []byte) []byte {
	out := make([]byte, 0, len(e.buf)+len(payload))
	out = append(out, e.buf...)
	out = append(out, payload...)
	return out
}

// Frame appends payload after the encoded header in the encoder's own
// buffer and returns the combined frame — the zero-copy sibling of
// Prepend. The result aliases the encoder's buffer: it is valid until
// the encoder's next write or Reset, or until its owner takes the
// buffer back, so use it when the frame is handed on for the call (a
// payload is borrowed for the call) and Prepend when the frame is
// retained. With a NewEncoder sized for header+payload this costs one
// allocation; with EncodeInto over a large enough buffer from the
// owner's Spares it costs none.
func (e *Encoder) Frame(payload []byte) []byte {
	e.buf = append(e.buf, payload...)
	return e.buf
}

// Reset truncates the encoder for reuse, keeping its buffer capacity.
func (e *Encoder) Reset() *Encoder {
	e.buf = e.buf[:0]
	return e
}

// Decoder consumes an encoded header with a sticky error.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps b for decoding. The decoder does not copy b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first error encountered, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the unconsumed tail of the buffer: the payload left
// for the layer above after this layer's header has been stripped. It is
// a view, not a copy, and borrowed as the buffer is: to keep it past the
// call that lent the buffer, copy it into your Spares.
func (d *Decoder) Remaining() []byte {
	if d.err != nil {
		return nil
	}
	return d.buf[d.off:]
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// U8 consumes a byte.
func (d *Decoder) U8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail(ErrTruncated)
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// Uvarint consumes an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n == 0 {
		d.fail(ErrTruncated)
		return 0
	}
	if n < 0 {
		d.fail(ErrOverflow)
		return 0
	}
	d.off += n
	return v
}

// Varint consumes a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n == 0 {
		d.fail(ErrTruncated)
		return 0
	}
	if n < 0 {
		d.fail(ErrOverflow)
		return 0
	}
	d.off += n
	return v
}

// Bool consumes a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// BytesField consumes a length-prefixed byte string. The result is a
// read-only view of the decoder's buffer, borrowed as the buffer is (to
// keep it, copy it into your Spares); its capacity is clipped to its
// length, so an append by the caller reallocates instead of scribbling
// on the next field.
func (d *Decoder) BytesField() []byte {
	n := d.Uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail(ErrTooLong)
		return nil
	}
	end := d.off + int(n)
	out := d.buf[d.off:end:end]
	d.off = end
	return out
}

// String consumes a length-prefixed string.
func (d *Decoder) String() string {
	return string(d.BytesField())
}

// Proc consumes a process id.
func (d *Decoder) Proc() ids.ProcID { return ids.ProcID(d.Varint()) }

// Msg consumes a message id.
func (d *Decoder) Msg() ids.MsgID { return ids.MsgID(d.Uvarint()) }

// Channel consumes a channel id.
func (d *Decoder) Channel() ids.ChannelID {
	v := d.Uvarint()
	if v > 0xFFFF {
		d.fail(fmt.Errorf("wire: channel id %d out of range", v))
		return 0
	}
	return ids.ChannelID(v)
}

// Procs consumes a length-prefixed list of process ids.
func (d *Decoder) Procs() []ids.ProcID {
	n := d.Uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) { // each proc takes >= 1 byte
		d.fail(ErrTooLong)
		return nil
	}
	out := make([]ids.ProcID, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.Proc())
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Counts consumes a length-prefixed list of counters.
func (d *Decoder) Counts() []uint64 {
	n := d.Uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) { // each count takes >= 1 byte
		d.fail(ErrTooLong)
		return nil
	}
	out := make([]uint64, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, d.Uvarint())
	}
	if d.err != nil {
		return nil
	}
	return out
}
