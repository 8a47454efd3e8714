// Package telemetry is the live view over the structured event stream:
// a deterministic sampling subsystem layered on the obs.Recorder
// fan-out. Where internal/obs accumulates cumulative counters for
// post-hoc analysis, telemetry maintains *rolling windows* — per-member
// counter deltas, a windowed switch-duration histogram with quantile
// accessors, and queue-depth/suspect gauges — snapshotted on a fixed
// tick into an append-only time-series, plus a switch-decision audit
// trail that stitches the round events (SwitchStart/Complete/Abort,
// EpochAdvance, TokenRegen, ...) into one record per switch round.
//
// Determinism contract (DESIGN §10): a Sampler advances its window
// clock only from observed event timestamps and explicit Tick/Finish
// calls, never from the wall clock or the scheduler. Under the DES the
// tick source is virtual time, so the produced series — like the trace
// it derives from — is a pure function of seed and configuration and
// is byte-identical for any sweep worker count. A realtime caller
// drives the same Sampler by calling Tick(time.Since(start))
// periodically; nothing else changes.
//
// Everything here is plumbed as an ordinary Recorder: when telemetry is
// off the switching core keeps its zero-alloc obs.Nop fast path, and
// the alloc regression tests in internal/obs pin that down.
package telemetry

import (
	"sort"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
)

// Interval is the sampling window width: wide enough that an idle ring
// produces sparse series, narrow enough to resolve a flash-crowd spike
// (E17 spikes last one second).
const Interval = 100 * time.Millisecond

// Config tunes a telemetry instance.
type Config struct {
	// Protocols is the length of the protocol cycle, used by the audit
	// trail to resolve an epoch to the protocol before/after the
	// switch. Zero means unknown (records carry -1).
	Protocols int
}

// MemberWindow is one member's aggregate over one window. Counters are
// deltas (this window only), keyed exactly like the cumulative
// obs.Metrics registry, so summing a member's windows reproduces its
// final counters — the consistency invariant the chaos tests check.
type MemberWindow struct {
	Proc int `json:"proc"`
	// Counters holds the event-derived counter deltas for the window
	// (obs.CounterKey mapping; absent keys are zero).
	Counters map[string]uint64 `json:"counters,omitempty"`
	// SwitchDur is the windowed histogram of switch-round durations
	// completed in this window, with bucket-quantile accessors
	// rendered alongside (µs).
	SwitchDur *obs.HistogramJSON `json:"switch_dur,omitempty"`
	P50US     int64              `json:"p50_us,omitempty"`
	P95US     int64              `json:"p95_us,omitempty"`
	P99US     int64              `json:"p99_us,omitempty"`
	// QueueDepth is the last egress queue depth the network sampled
	// for this member within the window (a gauge; 0 when not sampled).
	QueueDepth int64 `json:"queue_depth,omitempty"`
	// Suspects is the member's current count of distinct suspected
	// peers at window close (a gauge, cumulative across windows).
	Suspects int `json:"suspects,omitempty"`
}

// Window is one closed sampling window. Index is the window ordinal
// (window w covers [w*Interval, (w+1)*Interval) of run time); windows
// in which no events fired are not emitted, so gaps in Index are
// idle stretches, visible but free.
type Window struct {
	// Run tags the sweep run (set at merge time, like obs.Event.Run).
	Run     int            `json:"run"`
	Index   int64          `json:"index"`
	StartNS time.Duration  `json:"start_ns"`
	Members []MemberWindow `json:"members"`
}

// memberAccum is the mutable per-member state of the open window.
type memberAccum struct {
	counters map[string]uint64
	hist     obs.Histogram
	depth    int64
	suspects int
}

// Sampler consumes events and maintains the rolling window and the
// append-only series of closed windows. It is a single-run recorder:
// sweeps build one per run and merge the outputs in run-index order.
type Sampler struct {
	cur      int64 // open window index (-1 until the first advance)
	open     map[ids.ProcID]*memberAccum
	series   []Window
	suspects map[ids.ProcID]map[ids.ProcID]struct{}
}

// NewSampler returns an empty sampler.
func NewSampler() *Sampler {
	return &Sampler{
		cur:      -1,
		open:     make(map[ids.ProcID]*memberAccum),
		suspects: make(map[ids.ProcID]map[ids.ProcID]struct{}),
	}
}

// Enabled reports true (Recorder contract).
func (s *Sampler) Enabled() bool { return true }

// Record consumes one event: windows strictly before the event's
// timestamp are closed first, then the event lands in the now-open
// window.
func (s *Sampler) Record(e obs.Event) {
	s.Tick(e.At)
	acc := s.open[e.Proc]
	if acc == nil {
		acc = &memberAccum{counters: make(map[string]uint64)}
		s.open[e.Proc] = acc
	}
	if key := obs.CounterKey(e.Type); key != "" {
		acc.counters[key]++
	}
	switch e.Type {
	case obs.EvSwitchComplete:
		acc.hist.Observe(time.Duration(e.Args[0]))
	case obs.EvQueueDepth:
		acc.depth = e.Args[0]
	case obs.EvSuspect:
		set := s.suspects[e.Proc]
		if set == nil {
			set = make(map[ids.ProcID]struct{})
			s.suspects[e.Proc] = set
		}
		set[e.Peer] = struct{}{}
	case obs.EvSuspectCleared:
		delete(s.suspects[e.Proc], e.Peer)
		// Snapshot unconditionally so the gauge can fall to zero within
		// the window the last suspicion cleared in.
		acc.suspects = len(s.suspects[e.Proc])
		return
	}
	if set := s.suspects[e.Proc]; len(set) > 0 {
		acc.suspects = len(set)
	}
}

// Tick advances the window clock to the given run time, closing (and
// snapshotting) every window that ends at or before it. Under the DES
// this happens implicitly on every Record; a realtime caller invokes
// it from a wall-clock ticker.
func (s *Sampler) Tick(at time.Duration) {
	if at < 0 {
		at = 0
	}
	idx := int64(at / Interval)
	if idx == s.cur {
		return
	}
	s.flush()
	s.cur = idx
}

// Finish closes the window still open at the end of the run. The end
// time only needs to be at or past the last event; the canonical
// choice is the run horizon.
func (s *Sampler) Finish(end time.Duration) {
	s.Tick(end)
	s.flush()
	s.cur = -1
}

// flush snapshots the open window into the series (no-op when the
// window saw no events).
func (s *Sampler) flush() {
	if len(s.open) == 0 || s.cur < 0 {
		return
	}
	w := Window{
		Index:   s.cur,
		StartNS: time.Duration(s.cur) * Interval,
		Members: make([]MemberWindow, 0, len(s.open)),
	}
	procs := make([]ids.ProcID, 0, len(s.open))
	for p := range s.open {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	for _, p := range procs {
		acc := s.open[p]
		mw := MemberWindow{Proc: int(p), QueueDepth: acc.depth, Suspects: acc.suspects}
		if len(acc.counters) > 0 {
			mw.Counters = acc.counters
		}
		if acc.hist.Count() > 0 {
			hj := acc.hist.ToJSON()
			mw.SwitchDur = &hj
			mw.P50US = int64(acc.hist.Quantile(0.50) / time.Microsecond)
			mw.P95US = int64(acc.hist.Quantile(0.95) / time.Microsecond)
			mw.P99US = int64(acc.hist.Quantile(0.99) / time.Microsecond)
		}
		w.Members = append(w.Members, mw)
	}
	s.series = append(s.series, w)
	s.open = make(map[ids.ProcID]*memberAccum)
}

// Windows returns the closed-window series recorded so far (the
// sampler's own slice; callers must not mutate while still recording).
func (s *Sampler) Windows() []Window { return s.series }

// MergeWindows concatenates per-run window series in index order,
// tagging each window with its run — the same merge rule as
// obs.MergeRuns, so a sweep's series is identical for any worker
// count.
func MergeWindows(perRun [][]Window) []Window {
	var n int
	for _, ws := range perRun {
		n += len(ws)
	}
	out := make([]Window, 0, n)
	for run, ws := range perRun {
		for _, w := range ws {
			w.Run = run
			out = append(out, w)
		}
	}
	return out
}
