// Package trace implements the system model of §3 of the paper: processes
// multicast messages, executions are ordered sequences of Send and
// Deliver events, and a *property* is a predicate on such traces.
//
// The trace vocabulary is deliberately small — exactly the Send(m) and
// Deliver(p:m) events of the paper — but messages carry enough structure
// (identity, sender, body, optional view payload) for every property in
// Table 1 to be expressible, including No Replay (which distinguishes
// message bodies from message identities) and Virtual Synchrony (whose
// view changes are themselves messages carrying a membership list).
package trace

import (
	"fmt"
	"strings"

	"repro/internal/ids"
)

// Kind discriminates the two event types of the model.
type Kind int

const (
	// SendKind models that Msg.Sender has multicast the message.
	SendKind Kind = iota + 1
	// DeliverKind models that Proc has delivered the message.
	DeliverKind
)

// String renders the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case SendKind:
		return "Send"
	case DeliverKind:
		return "Deliver"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Message is the unit of communication. ID is the message's identity
// (unique per execution — the model forbids duplicate Send events);
// Body is its content, which may repeat across messages (No Replay is
// about bodies). A message with IsView set is a view-change message whose
// View field carries the new membership (used by Virtual Synchrony).
type Message struct {
	ID     ids.MsgID
	Sender ids.ProcID
	Body   string
	IsView bool
	View   []ids.ProcID
}

// Clone returns a deep copy of the message (the View slice is copied).
func (m Message) Clone() Message {
	out := m
	if m.View != nil {
		out.View = make([]ids.ProcID, len(m.View))
		copy(out.View, m.View)
	}
	return out
}

// String renders the message compactly.
func (m Message) String() string {
	if m.IsView {
		return fmt.Sprintf("%v<view %v from %v>", m.ID, m.View, m.Sender)
	}
	return fmt.Sprintf("%v<%q from %v>", m.ID, m.Body, m.Sender)
}

// Event is a single step of an execution.
type Event struct {
	Kind Kind
	// Deliverer is the delivering process for DeliverKind events and is
	// ignored (conventionally set to Msg.Sender) for SendKind events.
	Deliverer ids.ProcID
	Msg       Message
}

// Send constructs a Send(m) event.
func Send(m Message) Event {
	return Event{Kind: SendKind, Deliverer: m.Sender, Msg: m}
}

// Deliver constructs a Deliver(p : m) event.
func Deliver(p ids.ProcID, m Message) Event {
	return Event{Kind: DeliverKind, Deliverer: p, Msg: m}
}

// Proc returns the process an event "belongs to": the sender of a Send,
// the deliverer of a Deliver. The asynchrony and delayability relations
// of §5 are phrased in terms of this ownership.
func (e Event) Proc() ids.ProcID {
	if e.Kind == SendKind {
		return e.Msg.Sender
	}
	return e.Deliverer
}

// Clone returns a deep copy of the event.
func (e Event) Clone() Event {
	out := e
	out.Msg = e.Msg.Clone()
	return out
}

// String renders the event.
func (e Event) String() string {
	if e.Kind == SendKind {
		return fmt.Sprintf("Send(%v)", e.Msg)
	}
	return fmt.Sprintf("Deliver(%v : %v)", e.Deliverer, e.Msg)
}

// Trace is an ordered sequence of events. Per §3, a well-formed trace
// contains no duplicate Send events (see Validate).
type Trace []Event

// Clone returns a deep copy of the trace.
func (tr Trace) Clone() Trace {
	out := make(Trace, len(tr))
	for i, e := range tr {
		out[i] = e.Clone()
	}
	return out
}

// String renders the trace one event per line.
func (tr Trace) String() string {
	var b strings.Builder
	for i, e := range tr {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%3d %v", i, e)
	}
	return b.String()
}

// Validate checks the well-formedness condition of §3: a trace must not
// contain duplicate Send events (two Sends of the same message ID), and a
// Send event's Deliverer must equal its sender. It does NOT require
// at-most-once delivery — faulty executions are representable; see
// ValidateAtMostOnce for the stronger check assumed by the switching
// protocol.
func (tr Trace) Validate() error {
	sent := make(map[ids.MsgID]bool, len(tr))
	for i, e := range tr {
		switch e.Kind {
		case SendKind:
			if sent[e.Msg.ID] {
				return fmt.Errorf("trace: event %d duplicates Send of %v", i, e.Msg.ID)
			}
			sent[e.Msg.ID] = true
			if e.Deliverer != e.Msg.Sender {
				return fmt.Errorf("trace: event %d Send owner %v != sender %v", i, e.Deliverer, e.Msg.Sender)
			}
		case DeliverKind:
			if !e.Deliverer.Valid() {
				return fmt.Errorf("trace: event %d Deliver with invalid process", i)
			}
		default:
			return fmt.Errorf("trace: event %d has invalid kind %v", i, e.Kind)
		}
	}
	return nil
}

// ValidateAtMostOnce checks Validate plus the at-most-once delivery
// assumption the switching protocol makes of its underlying protocols:
// no process delivers the same message ID twice.
func (tr Trace) ValidateAtMostOnce() error {
	if err := tr.Validate(); err != nil {
		return err
	}
	type key struct {
		p ids.ProcID
		m ids.MsgID
	}
	seen := make(map[key]bool, len(tr))
	for i, e := range tr {
		if e.Kind != DeliverKind {
			continue
		}
		k := key{e.Deliverer, e.Msg.ID}
		if seen[k] {
			return fmt.Errorf("trace: event %d delivers %v twice at %v", i, e.Msg.ID, e.Deliverer)
		}
		seen[k] = true
	}
	return nil
}

// Processes returns the set of processes appearing in the trace (as
// senders or deliverers), in first-appearance order.
func (tr Trace) Processes() []ids.ProcID {
	seen := map[ids.ProcID]bool{}
	var out []ids.ProcID
	add := func(p ids.ProcID) {
		if p.Valid() && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, e := range tr {
		add(e.Msg.Sender)
		add(e.Deliverer)
	}
	return out
}

// MessageIDs returns the set of message IDs appearing in the trace, in
// first-appearance order.
func (tr Trace) MessageIDs() []ids.MsgID {
	seen := map[ids.MsgID]bool{}
	var out []ids.MsgID
	for _, e := range tr {
		if !seen[e.Msg.ID] {
			seen[e.Msg.ID] = true
			out = append(out, e.Msg.ID)
		}
	}
	return out
}

// Delivered reports whether process p delivers message id somewhere in
// the trace.
func (tr Trace) Delivered(p ids.ProcID, id ids.MsgID) bool {
	for _, e := range tr {
		if e.Kind == DeliverKind && e.Deliverer == p && e.Msg.ID == id {
			return true
		}
	}
	return false
}
