package obs

import (
	"math/bits"
	"sort"
	"time"

	"repro/internal/ids"
)

// counterKey names the counter each event type increments,
// "<layer>/<name>"; types not listed (token holds, phases) are
// trace-only. A switching-layer name that counts a switching.Stats
// field is "switching/" plus that field's json tag (pinned by
// switching's TestStatsCountersMatchEvents), so a member's registry
// counters and its Stats() compare field by field. Counts are kept by
// event type (Tally); these names are applied only when a registry
// snapshot or a telemetry window is rendered.
var counterKey = [eventTypeCount]string{
	EvTokenPass:      "switching/token_passes",
	EvTokenRegen:     "switching/tokens_regenerated",
	EvSwitchStart:    "switching/switches_started",
	EvSwitchComplete: "switching/switch_rounds",
	EvSwitchAbort:    "switching/switches_aborted",
	EvEpochAdvance:   "switching/switches_completed",
	EvEpochForced:    "switching/forced_advances",
	EvBuffered:       "switching/buffered",
	EvStaleDrop:      "switching/stale_dropped",
	EvWedgeTimeout:   "switching/wedge_timeouts",
	EvSuspect:        "switching/suspects",
	EvCrash:          "net/crashes",
	EvPartition:      "net/partitions",
	EvHeal:           "net/heals",
	EvFaultSet:       "net/fault_sets",
	EvDrop:           "net/drops",
	EvDelay:          "net/delays",
	EvCorruptSet:     "net/corrupt_sets",
	EvCorrupt:        "net/corrupts",
	EvTruncate:       "net/truncates",
	EvGarbage:        "net/garbage",
	EvMalformedDrop:  "switching/malformed_dropped",
	EvQuarantine:     "switching/quarantines",
	EvAuthFail:       "switching/auth_failed",
	EvForged:         "net/forged",
	EvReplayed:       "net/replayed",
	EvShed:           "switching/shed",
	EvBackpressureOn: "switching/backpressured",
	EvRetrySend:      "switching/retried_sends",
	EvSenderSpike:    "net/sender_spikes",
	EvSuspectCleared: "switching/suspects_cleared",
	EvSuspicionRaise: "switching/suspicions_raised",
	EvSuspicionClear: "switching/suspicions_cleared",
	EvFlapPenalty:    "switching/flap_penalties",
	EvDegradedSkip:   "switching/degraded_skips",
	EvReinclude:      "switching/reincludes",
	EvLinkFaultSet:   "net/link_fault_sets",
	EvSlowNodeSet:    "net/slow_node_sets",
	EvFlapSet:        "net/flap_sets",
}

// switchDurationKey names the histogram of initiated switch round
// durations (EvSwitchComplete) in a snapshot.
const switchDurationKey = "switching/switch_duration"

// CounterKey returns the counter an event type increments ("" for
// trace-only types).
func CounterKey(t EventType) string {
	if int(t) < len(counterKey) {
		return counterKey[t]
	}
	return ""
}

// HistogramBuckets is the fixed bucket count of the deterministic
// log-scaled latency histogram: bucket 0 holds sub-microsecond
// observations, bucket i >= 1 holds [2^(i-1), 2^i) microseconds, and
// the last bucket absorbs everything above ~2^38 µs (~76 hours —
// beyond any simulated horizon).
const HistogramBuckets = 40

// Histogram is a fixed-shape log-scaled latency histogram. It contains
// no pointers, so histograms (and the stats structs embedding them)
// remain comparable with == and mergeable by plain addition — which is
// what keeps sweep aggregation independent of worker count.
type Histogram struct {
	counts [HistogramBuckets]uint64
	n      uint64
	sum    time.Duration
}

// Observe adds one duration (negative values clamp to zero).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	b := bits.Len64(uint64(d / time.Microsecond))
	if b >= HistogramBuckets {
		b = HistogramBuckets - 1
	}
	h.counts[b]++
	h.n++
	h.sum += d
}

// Merge adds another histogram's observations into h.
func (h *Histogram) Merge(o Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Counts returns the bucket counts with trailing empty buckets
// trimmed.
func (h *Histogram) Counts() []uint64 {
	last := -1
	for i, c := range h.counts {
		if c != 0 {
			last = i
		}
	}
	out := make([]uint64, last+1)
	copy(out, h.counts[:last+1])
	return out
}

// BucketLow returns the inclusive lower bound of bucket i.
func BucketLow(i int) time.Duration {
	if i <= 0 {
		return 0
	}
	return time.Duration(1<<uint(i-1)) * time.Microsecond
}

// BucketHigh returns the exclusive upper bound of bucket i. Bucket 0
// tops out at 1µs; the final bucket is open-ended, so its "bound" is
// one doubling above its lower edge — the same width rule as every
// other bucket.
func BucketHigh(i int) time.Duration {
	if i <= 0 {
		return time.Microsecond
	}
	if i >= HistogramBuckets-1 {
		return 2 * BucketLow(HistogramBuckets-1)
	}
	return BucketLow(i + 1)
}

// Quantile estimates the q-quantile (q in [0,1]; out-of-range values
// clamp) from the bucketed distribution by linear interpolation inside
// the bucket holding the target rank. Resolution is therefore the
// bucket width — a factor of two — not the exact sample. Two edge
// cases are pinned down by tests: an empty histogram returns 0, and a
// histogram whose mass sits in a single bucket returns the mean
// (Sum/Count), which is exact for a single observation and the best
// available estimate otherwise.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	occupied := 0
	for _, c := range h.counts {
		if c != 0 {
			occupied++
		}
	}
	if occupied == 1 {
		return h.sum / time.Duration(h.n)
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo, hi := BucketLow(i), BucketHigh(i)
			frac := (target - cum) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum = next
	}
	// Unreachable: cum reaches h.n >= target on the last occupied bucket.
	return BucketHigh(HistogramBuckets - 1)
}

// Tally is one member's share of the event stream: a count per event
// type and the histogram of the switch rounds it completed as
// initiator. The registry keeps one per member for a whole run, the
// telemetry sampler one per member per window.
type Tally struct {
	counts    [eventTypeCount]uint64
	switchDur Histogram
}

// Record counts e and, for a switch completion, observes the round's
// duration.
func (t *Tally) Record(e Event) {
	if e.Type >= eventTypeCount {
		return
	}
	t.counts[e.Type]++
	if e.Type == EvSwitchComplete {
		t.switchDur.Observe(time.Duration(e.Args[0]))
	}
}

// Count returns how many events of type et were recorded.
func (t *Tally) Count(et EventType) uint64 {
	if et >= eventTypeCount {
		return 0
	}
	return t.counts[et]
}

// SwitchDurations returns the histogram of switch round durations.
func (t *Tally) SwitchDurations() *Histogram { return &t.switchDur }

// Merge adds another tally's counts and observations into t.
func (t *Tally) Merge(o *Tally) {
	for i, c := range o.counts {
		t.counts[i] += c
	}
	t.switchDur.Merge(o.switchDur)
}

// Counters renders the non-zero counts of counted event types under
// their counter names (nil when there are none).
func (t *Tally) Counters() map[string]uint64 {
	var out map[string]uint64
	for et, c := range t.counts {
		if c == 0 || counterKey[et] == "" {
			continue
		}
		if out == nil {
			out = make(map[string]uint64)
		}
		out[counterKey[et]] = c
	}
	return out
}

// Metrics is the per-member registry: one Tally per member, fed by
// recording events. Only counted event types (CounterKey non-empty)
// reach it, so a member appears once one of those has been recorded for
// it.
type Metrics struct {
	members map[ids.ProcID]*Tally
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{members: make(map[ids.ProcID]*Tally)}
}

func (m *Metrics) member(p ids.ProcID) *Tally {
	t := m.members[p]
	if t == nil {
		t = &Tally{}
		m.members[p] = t
	}
	return t
}

// Record counts a counted event at its member; trace-only events are
// ignored.
func (m *Metrics) Record(e Event) {
	if CounterKey(e.Type) == "" {
		return
	}
	m.member(e.Proc).Record(e)
}

// Enabled reports true.
func (m *Metrics) Enabled() bool { return true }

// Count returns how many events of type et were recorded for member p.
func (m *Metrics) Count(p ids.ProcID, et EventType) uint64 {
	if t := m.members[p]; t != nil {
		return t.Count(et)
	}
	return 0
}

// Procs returns the members present in the registry, sorted by ProcID.
func (m *Metrics) Procs() []ids.ProcID {
	out := make([]ids.ProcID, 0, len(m.members))
	for p := range m.members {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Merge folds another registry into m (sweep aggregation).
func (m *Metrics) Merge(o *Metrics) {
	if o == nil {
		return
	}
	for p, t := range o.members {
		m.member(p).Merge(t)
	}
}

// HistogramJSON is a histogram's artifact form: total count, total
// duration in microseconds, and the trimmed bucket counts (bucket i
// covers [2^(i-1), 2^i) µs; bucket 0 is sub-microsecond).
type HistogramJSON struct {
	Count  uint64   `json:"count"`
	SumUS  int64    `json:"sum_us"`
	Counts []uint64 `json:"counts,omitempty"`
}

// ToJSON converts the histogram for an artifact.
func (h *Histogram) ToJSON() HistogramJSON {
	return HistogramJSON{Count: h.n, SumUS: int64(h.sum / time.Microsecond), Counts: h.Counts()}
}

// MemberMetrics is one member's registry snapshot in artifact form.
type MemberMetrics struct {
	Proc       int                      `json:"proc"`
	Counters   map[string]uint64        `json:"counters,omitempty"`
	Histograms map[string]HistogramJSON `json:"histograms,omitempty"`
}

// Snapshot renders the registry sorted by ProcID — canonical artifact
// order (encoding/json additionally sorts the map keys, so snapshot
// bytes are deterministic).
func (m *Metrics) Snapshot() []MemberMetrics {
	out := make([]MemberMetrics, 0, len(m.members))
	for _, p := range m.Procs() {
		t := m.members[p]
		s := MemberMetrics{Proc: int(p), Counters: t.Counters()}
		if t.switchDur.Count() > 0 {
			s.Histograms = map[string]HistogramJSON{switchDurationKey: t.switchDur.ToJSON()}
		}
		out = append(out, s)
	}
	return out
}
