package obs

import (
	"math/bits"
	"sort"
	"time"

	"repro/internal/ids"
)

// Counter keys are "<layer>/<name>". A switching-layer key that counts
// a switching.Stats field is "switching/" plus that field's json tag
// (pinned by switching's TestStatsCountersMatchEvents), so a member's
// registry counters and its Stats() compare field by field.
const (
	KeyTokenPasses       = "switching/token_passes"
	KeySwitchesCompleted = "switching/switches_completed"
	KeyBuffered          = "switching/buffered"
	KeyStaleDropped      = "switching/stale_dropped"
	KeyWedgeTimeouts     = "switching/wedge_timeouts"
	KeyTokensRegenerated = "switching/tokens_regenerated"
	KeySwitchesAborted   = "switching/switches_aborted"
	KeyForcedAdvances    = "switching/forced_advances"
	KeySwitchesStarted   = "switching/switches_started"
	KeySwitchRounds      = "switching/switch_rounds"
	KeySuspects          = "switching/suspects"
	KeySuspectsCleared   = "switching/suspects_cleared"
	KeySuspicionsRaised  = "switching/suspicions_raised"
	KeySuspicionsCleared = "switching/suspicions_cleared"
	KeyFlapPenalties     = "switching/flap_penalties"
	KeyDegradedSkips     = "switching/degraded_skips"
	KeyReincludes        = "switching/reincludes"
	KeyMalformedDropped  = "switching/malformed_dropped"
	KeyQuarantines       = "switching/quarantines"
	KeyAuthFailed        = "switching/auth_failed"
	KeyShed              = "switching/shed"
	KeyBackpressured     = "switching/backpressured"
	KeyRetriedSends      = "switching/retried_sends"

	KeyNetCrashes     = "net/crashes"
	KeyNetPartitions  = "net/partitions"
	KeyNetHeals       = "net/heals"
	KeyNetFaultSets   = "net/fault_sets"
	KeyNetDrops       = "net/drops"
	KeyNetDelays      = "net/delays"
	KeyNetCorruptSets = "net/corrupt_sets"
	KeyNetCorrupts    = "net/corrupts"
	KeyNetTruncates   = "net/truncates"
	KeyNetGarbage     = "net/garbage"
	KeyNetForged      = "net/forged"
	KeyNetReplayed    = "net/replayed"
	KeyNetSpikes      = "net/sender_spikes"
	KeyNetLinkFaults  = "net/link_fault_sets"
	KeyNetSlowNodes   = "net/slow_node_sets"
	KeyNetFlapSets    = "net/flap_sets"

	// KeySwitchDuration is the per-member histogram of initiated switch
	// round durations (EvSwitchComplete).
	KeySwitchDuration = "switching/switch_duration"
)

// counterKey maps event types to the counter they increment; types not
// listed (token holds, phases) are trace-only.
var counterKey = [eventTypeCount]string{
	EvTokenPass:      KeyTokenPasses,
	EvTokenRegen:     KeyTokensRegenerated,
	EvSwitchStart:    KeySwitchesStarted,
	EvSwitchComplete: KeySwitchRounds,
	EvSwitchAbort:    KeySwitchesAborted,
	EvEpochAdvance:   KeySwitchesCompleted,
	EvEpochForced:    KeyForcedAdvances,
	EvBuffered:       KeyBuffered,
	EvStaleDrop:      KeyStaleDropped,
	EvWedgeTimeout:   KeyWedgeTimeouts,
	EvSuspect:        KeySuspects,
	EvCrash:          KeyNetCrashes,
	EvPartition:      KeyNetPartitions,
	EvHeal:           KeyNetHeals,
	EvFaultSet:       KeyNetFaultSets,
	EvDrop:           KeyNetDrops,
	EvDelay:          KeyNetDelays,
	EvCorruptSet:     KeyNetCorruptSets,
	EvCorrupt:        KeyNetCorrupts,
	EvTruncate:       KeyNetTruncates,
	EvGarbage:        KeyNetGarbage,
	EvMalformedDrop:  KeyMalformedDropped,
	EvQuarantine:     KeyQuarantines,
	EvAuthFail:       KeyAuthFailed,
	EvForged:         KeyNetForged,
	EvReplayed:       KeyNetReplayed,
	EvShed:           KeyShed,
	EvBackpressureOn: KeyBackpressured,
	EvRetrySend:      KeyRetriedSends,
	EvSenderSpike:    KeyNetSpikes,
	EvSuspectCleared: KeySuspectsCleared,
	EvSuspicionRaise: KeySuspicionsRaised,
	EvSuspicionClear: KeySuspicionsCleared,
	EvFlapPenalty:    KeyFlapPenalties,
	EvDegradedSkip:   KeyDegradedSkips,
	EvReinclude:      KeyReincludes,
	EvLinkFaultSet:   KeyNetLinkFaults,
	EvSlowNodeSet:    KeyNetSlowNodes,
	EvFlapSet:        KeyNetFlapSets,
}

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

// Metrics is the per-member, per-layer registry: counters and latency
// histograms keyed by "<layer>/<name>". It is a plain accumulator —
// callers feed it either directly or through the event adapter
// returned by Recorder.
type Metrics struct {
	members map[ids.ProcID]*memberMetrics
}

type memberMetrics struct {
	counters map[string]uint64
	hists    map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{members: make(map[ids.ProcID]*memberMetrics)}
}

func (m *Metrics) member(p ids.ProcID) *memberMetrics {
	mm := m.members[p]
	if mm == nil {
		mm = &memberMetrics{counters: make(map[string]uint64), hists: make(map[string]*Histogram)}
		m.members[p] = mm
	}
	return mm
}

// Add increments member p's counter key by delta.
func (m *Metrics) Add(p ids.ProcID, key string, delta uint64) {
	m.member(p).counters[key] += delta
}

// Observe adds one duration to member p's histogram key.
func (m *Metrics) Observe(p ids.ProcID, key string, d time.Duration) {
	mm := m.member(p)
	h := mm.hists[key]
	if h == nil {
		h = &Histogram{}
		mm.hists[key] = h
	}
	h.Observe(d)
}

// Counter returns member p's counter value (zero when absent).
func (m *Metrics) Counter(p ids.ProcID, key string) uint64 {
	if mm := m.members[p]; mm != nil {
		return mm.counters[key]
	}
	return 0
}

// Hist returns member p's histogram (nil when absent).
func (m *Metrics) Hist(p ids.ProcID, key string) *Histogram {
	if mm := m.members[p]; mm != nil {
		return mm.hists[key]
	}
	return nil
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
	for p, om := range o.members {
		mm := m.member(p)
		for k, v := range om.counters {
			mm.counters[k] += v
		}
		for k, h := range om.hists {
			dst := mm.hists[k]
			if dst == nil {
				dst = &Histogram{}
				mm.hists[k] = dst
			}
			dst.Merge(*h)
		}
	}
}

// Recorder returns the event adapter that feeds the registry: every
// event increments its member's mapped counter, and switch completions
// additionally observe the round duration histogram.
func (m *Metrics) Recorder() Recorder { return metricsRecorder{m} }

type metricsRecorder struct{ m *Metrics }

func (r metricsRecorder) Record(e Event) {
	if key := CounterKey(e.Type); key != "" {
		r.m.Add(e.Proc, key, 1)
	}
	if e.Type == EvSwitchComplete {
		r.m.Observe(e.Proc, KeySwitchDuration, time.Duration(e.Args[0]))
	}
}

func (r metricsRecorder) Enabled() bool { return true }

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
		mm := m.members[p]
		s := MemberMetrics{Proc: int(p)}
		if len(mm.counters) > 0 {
			s.Counters = make(map[string]uint64, len(mm.counters))
			for k, v := range mm.counters {
				s.Counters[k] = v
			}
		}
		if len(mm.hists) > 0 {
			s.Histograms = make(map[string]HistogramJSON, len(mm.hists))
			for k, h := range mm.hists {
				s.Histograms[k] = h.ToJSON()
			}
		}
		out = append(out, s)
	}
	return out
}
