// Package switching implements the paper's contribution: a generic
// switching protocol (SP) layered over interchangeable protocols, which
// guarantees that every process delivers all messages of the old
// protocol before any message of the new one (§2).
//
// The package provides the three components of Figure 1:
//
//   - Multiplex — simulates multiple private connections over the single
//     shared transport, one per sub-protocol plus one for the SP itself;
//   - Switch — the SP proper, driven by a token rotating on a logical
//     ring through NORMAL → PREPARE → SWITCH(vector) → FLUSH;
//   - oracles — pluggable policies deciding *when* to switch (the paper
//     treats "which protocol is best" as an orthogonal problem decided
//     by "some kind of oracle").
package switching

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/wire"
)

// Multiplex routes one transport's packets to multiple logical channels.
// Each channel behaves as a private connection: Figure 1 of the paper
// requires one for the switching protocol itself and one per underlying
// protocol.
type Multiplex struct {
	down proto.Down
	// ups is indexed by channel; a nil entry, or a channel past the end,
	// is unbound.
	ups []proto.Up
	// dropped counts packets for unbound channels.
	dropped uint64
	// onMalformed, if set, is told about packets whose channel header
	// failed to decode (the Switch routes these into its defensive
	// ingress accounting).
	onMalformed func(src ids.ProcID)
	// spare holds the buffers every port builds its tagged frames in.
	spare wire.Spares
}

// NewMultiplex creates a multiplexer over the given transport.
func NewMultiplex(down proto.Down) (*Multiplex, error) {
	if down == nil {
		return nil, fmt.Errorf("switching: multiplex needs a transport")
	}
	return &Multiplex{down: down}, nil
}

// Bind attaches the receiver for one channel. Rebinding replaces it.
func (m *Multiplex) Bind(ch ids.ChannelID, up proto.Up) {
	if int(ch) >= len(m.ups) {
		m.ups = append(m.ups, make([]proto.Up, int(ch)+1-len(m.ups))...)
	}
	m.ups[ch] = up
}

// Dropped returns the number of packets discarded for unbound channels.
func (m *Multiplex) Dropped() uint64 { return m.dropped }

// Recv routes an incoming transport packet to its channel's receiver.
// Wire the node's network handler here.
func (m *Multiplex) Recv(src ids.ProcID, pkt []byte) {
	d := wire.NewDecoder(pkt)
	ch := d.Channel()
	if d.Err() != nil {
		m.dropped++
		if m.onMalformed != nil {
			m.onMalformed(src)
		}
		return
	}
	if int(ch) >= len(m.ups) || m.ups[ch] == nil {
		m.dropped++
		return
	}
	m.ups[ch].Deliver(src, d.Remaining())
}

// Port returns the Down endpoint of one channel: everything pushed into
// it is tagged with the channel id and sent on the shared transport.
func (m *Multiplex) Port(ch ids.ChannelID) proto.Down {
	return muxPort{m: m, ch: ch}
}

type muxPort struct {
	m  *Multiplex
	ch ids.ChannelID
}

var _ proto.Down = muxPort{}

func (p muxPort) Cast(payload []byte) error {
	frame := p.frame(payload)
	err := p.m.down.Cast(frame)
	p.m.spare.Put(frame)
	return err
}

func (p muxPort) Send(dst ids.ProcID, payload []byte) error {
	frame := p.frame(payload)
	err := p.m.down.Send(dst, frame)
	p.m.spare.Put(frame)
	return err
}

// frame builds payload's channel-tagged frame in a buffer from the
// multiplexer's spares.
func (p muxPort) frame(payload []byte) []byte {
	e := wire.EncodeInto(p.m.spare.Get(wire.MaxHeader + len(payload)))
	return e.Channel(p.ch).Frame(payload)
}
