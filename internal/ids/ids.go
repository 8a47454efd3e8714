// Package ids defines the identifier types shared by every subsystem:
// process identifiers, message identifiers, and multiplex channel
// identifiers, together with the logical-ring arithmetic that the
// switching protocol's token rotation relies on.
package ids

import (
	"fmt"
	"slices"
	"strconv"
)

// ProcID identifies a process (a group member). Processes in a group of
// size n are numbered 0..n-1; the logical ring used by the switching
// protocol and the token-ordering protocol follows this numbering.
type ProcID int32

// Nobody is the zero-value "no process" sentinel. Valid process
// identifiers are non-negative.
const Nobody ProcID = -1

// String renders the process id as "p<n>" (or "p?" for Nobody).
func (p ProcID) String() string {
	if p == Nobody {
		return "p?"
	}
	return "p" + strconv.Itoa(int(p))
}

// Valid reports whether p denotes an actual process.
func (p ProcID) Valid() bool { return p >= 0 }

// MsgID uniquely identifies a message within an execution. The paper's
// trace model forbids duplicate Send events, so a MsgID is sent at most
// once; message *bodies*, in contrast, may repeat (the No Replay property
// is about bodies, not identities).
type MsgID uint64

// String renders the message id as "m<n>".
func (m MsgID) String() string { return "m" + strconv.FormatUint(uint64(m), 10) }

// ChannelID identifies a multiplexed logical channel over the shared
// transport. Figure 1 of the paper requires a private channel for the
// switching protocol itself plus one per underlying protocol.
type ChannelID uint16

// Reserved channel assignments used by the switching stack. Sub-protocol
// epochs use ProtocolChannel(i).
const (
	// ControlChannel carries the switching protocol's token.
	ControlChannel ChannelID = 0
	// AppChannel is used when a stack runs without a switch (direct).
	AppChannel ChannelID = 1
)

// ProtocolChannel returns the private channel of the i-th sub-protocol
// instance managed by a switching layer (i counts protocol epochs).
func ProtocolChannel(i int) ChannelID {
	return ChannelID(2 + i)
}

// String renders the channel id as "ch<n>".
func (c ChannelID) String() string { return "ch" + strconv.FormatUint(uint64(c), 10) }

// Ring captures a fixed logical ring over the members of a group. The
// switching protocol rotates its token along this ring; the token-based
// total-order protocol reuses it. Lookups scan the member slice: a group
// is a handful of members, and at that size a scan is cheaper than a
// map lookup.
type Ring struct {
	members []ProcID
}

// NewRing builds a ring from the given membership. The order of the slice
// is the rotation order. NewRing copies the slice. It returns an error if
// the membership is empty or contains duplicates or invalid ids.
func NewRing(members []ProcID) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("ring: empty membership")
	}
	r := &Ring{members: make([]ProcID, 0, len(members))}
	for _, m := range members {
		if !m.Valid() {
			return nil, fmt.Errorf("ring: invalid member %v", m)
		}
		if r.Contains(m) {
			return nil, fmt.Errorf("ring: duplicate member %v", m)
		}
		r.members = append(r.members, m)
	}
	return r, nil
}

// Size returns the number of members on the ring.
func (r *Ring) Size() int { return len(r.members) }

// Members returns a copy of the membership in ring order.
func (r *Ring) Members() []ProcID {
	out := make([]ProcID, len(r.members))
	copy(out, r.members)
	return out
}

// Member returns the member at ring position i, 0 <= i < Size().
func (r *Ring) Member(i int) ProcID { return r.members[i] }

// Contains reports whether p is a ring member.
func (r *Ring) Contains(p ProcID) bool { return r.Position(p) >= 0 }

// Successor returns the next member after p in rotation order. It returns
// an error if p is not on the ring.
func (r *Ring) Successor(p ProcID) (ProcID, error) {
	i := r.Position(p)
	if i < 0 {
		return Nobody, fmt.Errorf("ring: %v is not a member", p)
	}
	if i++; i == len(r.members) {
		i = 0
	}
	return r.members[i], nil
}

// Position returns p's index in rotation order, or -1 if absent.
func (r *Ring) Position(p ProcID) int { return slices.Index(r.members, p) }

// Procs returns the canonical membership {0, 1, ..., n-1}. It is the
// conventional group layout used throughout tests and experiments.
func Procs(n int) []ProcID {
	out := make([]ProcID, n)
	for i := range out {
		out[i] = ProcID(i)
	}
	return out
}
