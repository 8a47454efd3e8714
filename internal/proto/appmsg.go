package proto

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/trace"
	"repro/internal/wire"
)

// AppMsg is the application-level message exchanged at the top of a
// stack. It mirrors the trace model's Message (identity, sender, body,
// optional view payload) so executions can be recorded as traces and
// checked against Table 1 properties.
type AppMsg struct {
	ID     ids.MsgID
	Sender ids.ProcID
	Body   []byte
	IsView bool
	View   []ids.ProcID
}

// Encode marshals the message for transport through a stack.
func (m AppMsg) Encode() []byte {
	e := wire.NewEncoder(16 + len(m.Body))
	e.Msg(m.ID).Proc(m.Sender).Bool(m.IsView).Procs(m.View).BytesField(m.Body)
	return e.Bytes()
}

// DecodeApp unmarshals an application message. Body is a view of b, not
// a copy.
func DecodeApp(b []byte) (AppMsg, error) {
	d := wire.NewDecoder(b)
	m := AppMsg{
		ID:     d.Msg(),
		Sender: d.Proc(),
		IsView: d.Bool(),
		View:   d.Procs(),
		Body:   d.BytesField(),
	}
	if err := d.Err(); err != nil {
		return AppMsg{}, fmt.Errorf("proto: decode app message: %w", err)
	}
	return m, nil
}

// DecodeAppID unmarshals just the message id — the first encoded field.
// Per-delivery consumers that only need the identity (the throughput
// collector) use this to stay off the allocator; DecodeApp would decode
// the view list per message just to drop it.
func DecodeAppID(b []byte) (ids.MsgID, error) {
	d := wire.NewDecoder(b)
	id := d.Msg()
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("proto: decode app message id: %w", err)
	}
	return id, nil
}

// TraceMessage converts the app message to the trace model's Message.
func (m AppMsg) TraceMessage() trace.Message {
	out := trace.Message{
		ID:     m.ID,
		Sender: m.Sender,
		Body:   string(m.Body),
		IsView: m.IsView,
	}
	if m.View != nil {
		out.View = make([]ids.ProcID, len(m.View))
		copy(out.View, m.View)
	}
	return out
}

// MakeMsgID builds a globally unique message id from the sender and a
// sender-local sequence number — the conventional id layout used by the
// harness and examples.
func MakeMsgID(sender ids.ProcID, seq uint32) ids.MsgID {
	return ids.MsgID(uint64(uint32(sender))<<32 | uint64(seq))
}
