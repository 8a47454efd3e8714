package proto

import (
	"fmt"

	"repro/internal/contract"
	"repro/internal/ids"
	"repro/internal/wire"
)

// Stack composes layers top-to-bottom at one process, wiring each
// layer's Down to the layer beneath and each layer's Up to the layer
// above. The composition is itself Layer-shaped — the paper's "a stack
// of protocols is another protocol".
type Stack struct {
	layers []Layer // layers[0] is the top
	// passApp/passTransport carry the endpoints for the degenerate
	// zero-layer stack, which is a pure passthrough.
	passApp       Up
	passTransport Down
	// spare holds the private copies contract.Lend hands each callee;
	// nil unless contract.Enabled.
	spare *wire.Spares
}

// layerDown adapts the layer beneath into the Down interface.
type layerDown struct{ l Layer }

func (d layerDown) Cast(payload []byte) error                 { return d.l.Cast(payload) }
func (d layerDown) Send(dst ids.ProcID, payload []byte) error { return d.l.Send(dst, payload) }

var _ Down = layerDown{}

// lendingDown hands its callee a private copy of each payload and poisons
// the copy when the call returns (package contract): a callee that kept
// the caller's bytes without copying them reads contract.PoisonByte.
// Build wraps every Down in one in contract builds only.
type lendingDown struct {
	d     Down
	spare *wire.Spares
}

func (l lendingDown) Cast(payload []byte) error { return contract.Lend(l.spare, payload, l.d.Cast) }

func (l lendingDown) Send(dst ids.ProcID, payload []byte) error {
	return contract.Lend(l.spare, payload, func(p []byte) error { return l.d.Send(dst, p) })
}

// layerUp adapts the layer above into the Up interface.
type layerUp struct{ l Layer }

func (u layerUp) Deliver(src ids.ProcID, payload []byte) { u.l.Recv(src, payload) }

var _ Up = layerUp{}

// Build initializes layers (given top-first) between the application
// (app, receiving final deliveries) and the transport (the Down at the
// very bottom). An empty layer list yields a passthrough stack that
// casts straight to the transport and delivers straight to the app —
// useful as a degenerate case in tests.
func Build(env Env, app Up, transport Down, layers ...Layer) (*Stack, error) {
	if env == nil || app == nil || transport == nil {
		return nil, fmt.Errorf("proto: Build requires env, app and transport")
	}
	s := &Stack{layers: layers}
	if contract.Enabled {
		s.spare = new(wire.Spares)
	}
	for i, l := range layers {
		var down Down
		if i == len(layers)-1 {
			down = transport
		} else {
			down = layerDown{layers[i+1]}
		}
		if contract.Enabled {
			down = lendingDown{down, s.spare}
		}
		var up Up
		if i == 0 {
			up = app
		} else {
			up = layerUp{layers[i-1]}
		}
		if err := l.Init(env, down, up); err != nil {
			return nil, fmt.Errorf("proto: init layer %d: %w", i, err)
		}
	}
	if len(layers) == 0 {
		s.passApp, s.passTransport = app, transport
	}
	if contract.Enabled {
		s.passTransport = lendingDown{transport, s.spare}
	}
	return s, nil
}

func (s *Stack) top() Layer {
	if len(s.layers) == 0 {
		return nil
	}
	return s.layers[0]
}

func (s *Stack) bottom() Layer {
	if len(s.layers) == 0 {
		return nil
	}
	return s.layers[len(s.layers)-1]
}

// Cast multicasts an application payload through the stack. payload is
// borrowed for the call (see Down).
func (s *Stack) Cast(payload []byte) error {
	if t := s.top(); t != nil {
		if contract.Enabled {
			return contract.Lend(s.spare, payload, t.Cast)
		}
		return t.Cast(payload)
	}
	return s.passTransport.Cast(payload)
}

// Send sends point-to-point through the stack, under the same rule as
// Cast.
func (s *Stack) Send(dst ids.ProcID, payload []byte) error {
	if t := s.top(); t != nil {
		if contract.Enabled {
			return contract.Lend(s.spare, payload, func(p []byte) error { return t.Send(dst, p) })
		}
		return t.Send(dst, payload)
	}
	return s.passTransport.Send(dst, payload)
}

// Recv injects a payload arriving from the transport; runtimes bind the
// network handler to this method.
func (s *Stack) Recv(src ids.ProcID, payload []byte) {
	if b := s.bottom(); b != nil {
		b.Recv(src, payload)
		return
	}
	s.passApp.Deliver(src, payload)
}

// Stop stops every layer, top first.
func (s *Stack) Stop() {
	for _, l := range s.layers {
		l.Stop()
	}
}

// SetEpoch informs every EpochAware layer of the current switching
// epoch (a no-op for layers that are not epoch-keyed).
func (s *Stack) SetEpoch(epoch uint64) {
	for _, l := range s.layers {
		if ea, ok := l.(EpochAware); ok {
			ea.SetEpoch(epoch)
		}
	}
}

// Len returns the number of layers.
func (s *Stack) Len() int { return len(s.layers) }

// Layer returns layer i, counted from the top.
func (s *Stack) Layer(i int) Layer { return s.layers[i] }
