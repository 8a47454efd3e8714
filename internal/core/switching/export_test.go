package switching

import (
	"repro/internal/proto"
	"repro/internal/wire"
)

// MemberSpares returns every buffer stack s owns on its message path:
// its own, the overload layer's, the multiplexer's, the batcher's and
// the sealing transport's, and those of its stacks' layers that expose
// one.
func MemberSpares(s *Switch) []*wire.Spares {
	out := []*wire.Spares{&s.spare, &s.mux.spare}
	if s.ovl != nil {
		out = append(out, &s.ovl.spare)
	}
	down := s.mux.down
	if s.batch != nil {
		out = append(out, &s.batch.spare)
		down = s.batch.down
	}
	if t, ok := down.(*authTransport); ok {
		out = append(out, &t.spare)
	}
	for _, st := range append([]*proto.Stack{s.ctl}, s.protos...) {
		for i := 0; i < st.Len(); i++ {
			if l, ok := st.Layer(i).(interface{ Spares() *wire.Spares }); ok {
				out = append(out, l.Spares())
			}
		}
	}
	return out
}
