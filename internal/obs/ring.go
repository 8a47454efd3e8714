package obs

// DefaultFlightSize is the flight recorder's default capacity. At
// chaos-run event rates it holds roughly the last half second of
// protocol activity — enough history to see the faults and recovery
// steps that led to an invariant violation.
const DefaultFlightSize = 512

// FlightRecorder keeps the last N events in a preallocated ring — the
// chaos harness's black box. When an invariant is violated, Snapshot
// yields the tail of the event history for the failure artifact.
type FlightRecorder struct {
	buf   []Event
	total uint64
}

// NewFlightRecorder returns a recorder retaining the last size events
// (size <= 0 uses DefaultFlightSize).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightSize
	}
	return &FlightRecorder{buf: make([]Event, size)}
}

// Record stores the event, evicting the oldest once full.
func (f *FlightRecorder) Record(e Event) {
	f.buf[int(f.total%uint64(len(f.buf)))] = e
	f.total++
}

// Enabled reports true.
func (f *FlightRecorder) Enabled() bool { return true }

// Snapshot returns the retained events, oldest first.
func (f *FlightRecorder) Snapshot() []Event {
	n := f.total
	size := uint64(len(f.buf))
	if n > size {
		n = size
	}
	out := make([]Event, 0, n)
	start := f.total - n
	for i := uint64(0); i < n; i++ {
		out = append(out, f.buf[int((start+i)%size)])
	}
	return out
}

// Dropped returns how many events were evicted from the ring.
func (f *FlightRecorder) Dropped() uint64 {
	if size := uint64(len(f.buf)); f.total > size {
		return f.total - size
	}
	return 0
}
