package obs

import (
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 3},
		{time.Millisecond, 10},       // 1000 µs -> bits.Len64 = 10
		{31 * time.Millisecond, 15},  // 31000 µs
		{-time.Second, 0},            // clamps to zero
		{time.Duration(1) << 62, 39}, // saturates in the last bucket
	}
	for _, c := range cases {
		before := h.counts[c.bucket]
		h.Observe(c.d)
		if h.counts[c.bucket] != before+1 {
			t.Errorf("Observe(%v) did not land in bucket %d", c.d, c.bucket)
		}
	}
	if h.Count() != uint64(len(cases)) {
		t.Errorf("count = %d, want %d", h.Count(), len(cases))
	}
	if got := BucketLow(1); got != time.Microsecond {
		t.Errorf("BucketLow(1) = %v", got)
	}
	if got := BucketLow(11); got != 1024*time.Microsecond {
		t.Errorf("BucketLow(11) = %v", got)
	}
}

func TestHistogramMergeAndTrim(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Microsecond)
	b.Observe(3 * time.Microsecond)
	b.Observe(time.Millisecond)
	a.Merge(b)
	if a.Count() != 3 || a.Sum() != time.Microsecond+3*time.Microsecond+time.Millisecond {
		t.Fatalf("merge wrong: n=%d sum=%v", a.Count(), a.Sum())
	}
	counts := a.Counts()
	if len(counts) != 11 { // last populated bucket is 10 (1ms)
		t.Fatalf("trimmed counts len = %d, want 11", len(counts))
	}
	var empty Histogram
	if len(empty.Counts()) != 0 {
		t.Error("empty histogram should trim to no buckets")
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	// Single observation: every quantile is that observation exactly
	// (single-bucket mass returns the mean).
	var one Histogram
	one.Observe(5 * time.Millisecond)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := one.Quantile(q); got != 5*time.Millisecond {
			t.Errorf("singleton Quantile(%v) = %v, want 5ms", q, got)
		}
	}
	// Several observations in one bucket: still the mean.
	var same Histogram
	same.Observe(600 * time.Microsecond)
	same.Observe(1000 * time.Microsecond) // both in bucket 10: [512µs,1024µs)
	if got := same.Quantile(0.5); got != 800*time.Microsecond {
		t.Errorf("single-bucket Quantile(0.5) = %v, want 800µs", got)
	}
}

func TestHistogramQuantileInterpolates(t *testing.T) {
	// 10 observations in bucket 10 ([512µs,1024µs)) and 10 in bucket 11
	// ([1024µs,2048µs)): the median falls exactly on the bucket edge and
	// the extremes on the outer bucket bounds.
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Observe(600 * time.Microsecond)
		h.Observe(1500 * time.Microsecond)
	}
	if got := h.Quantile(0.5); got != 1024*time.Microsecond {
		t.Errorf("Quantile(0.5) = %v, want 1024µs", got)
	}
	if got := h.Quantile(0); got != 512*time.Microsecond {
		t.Errorf("Quantile(0) = %v, want 512µs", got)
	}
	if got := h.Quantile(1); got != 2048*time.Microsecond {
		t.Errorf("Quantile(1) = %v, want 2048µs", got)
	}
	// Out-of-range q clamps rather than panicking.
	if got := h.Quantile(-3); got != 512*time.Microsecond {
		t.Errorf("Quantile(-3) = %v, want 512µs", got)
	}
	if got := h.Quantile(7); got != 2048*time.Microsecond {
		t.Errorf("Quantile(7) = %v, want 2048µs", got)
	}
	// Quartile inside a bucket: rank 5 of 10 in [512µs,1024µs).
	if got := h.Quantile(0.25); got != 768*time.Microsecond {
		t.Errorf("Quantile(0.25) = %v, want 768µs", got)
	}
	if lo, hi := BucketHigh(0), BucketHigh(HistogramBuckets-1); lo != time.Microsecond || hi != 2*BucketLow(HistogramBuckets-1) {
		t.Errorf("BucketHigh bounds wrong: %v %v", lo, hi)
	}
}

func TestMetricsRecorderMapsEvents(t *testing.T) {
	m := NewMetrics()
	var r Recorder = m
	if !r.Enabled() {
		t.Fatal("metrics recorder disabled")
	}
	r.Record(TokenPass(0, 1, 2, 1, 0, 0))
	r.Record(TokenPass(1, 1, 2, 1, 0, 0))
	r.Record(WedgeTimeout(2, 1, 1))
	r.Record(TokenRegen(3, 1, 0, 1))
	r.Record(SwitchComplete(4, 1, 1, 1, 31*time.Millisecond))
	r.Record(TokenHold(5, 1, 1, 0, 0)) // trace-only: no counter
	r.Record(Crash(6, 2))

	if got := m.Count(1, EvTokenPass); got != 2 {
		t.Errorf("token passes = %d", got)
	}
	if got := m.Count(1, EvWedgeTimeout); got != 1 {
		t.Errorf("wedge timeouts = %d", got)
	}
	if got := m.Count(1, EvTokenRegen); got != 1 {
		t.Errorf("regens = %d", got)
	}
	if got := m.Count(2, EvCrash); got != 1 {
		t.Errorf("crashes = %d", got)
	}
	if got := m.Count(1, EvTokenHold); got != 0 {
		t.Errorf("trace-only token holds counted: %d", got)
	}
	snap := m.Snapshot()
	if got := snap[0].Counters[CounterKey(EvTokenPass)]; got != 2 {
		t.Errorf("snapshot token passes = %d", got)
	}
	h, ok := snap[0].Histograms[switchDurationKey]
	if !ok || h.Count != 1 || h.SumUS != 31000 {
		t.Errorf("switch duration histogram wrong: %+v", snap[0].Histograms)
	}
	if CounterKey(EvTokenHold) != "" || CounterKey(EvPhase) != "" {
		t.Error("trace-only events must not map to counters")
	}
}

func TestMetricsMergeAndSnapshotOrder(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.Record(TokenPass(0, 3, 0, 1, 0, 0))
	a.Record(TokenPass(0, 3, 0, 1, 0, 0))
	a.Record(SwitchComplete(0, 3, 0, 1, time.Millisecond))
	b.Record(TokenPass(0, 0, 1, 1, 0, 0))
	for i := 0; i < 5; i++ {
		b.Record(TokenPass(0, 3, 0, 1, 0, 0))
	}
	b.Record(SwitchComplete(0, 3, 0, 1, 2*time.Millisecond))
	a.Merge(b)
	a.Merge(nil)
	if got := a.Count(3, EvTokenPass); got != 7 {
		t.Errorf("merged counter = %d, want 7", got)
	}
	snap := a.Snapshot()
	if len(snap) != 2 || snap[0].Proc != 0 || snap[1].Proc != 3 {
		t.Fatalf("snapshot not sorted by proc: %+v", snap)
	}
	if snap[1].Histograms[switchDurationKey].Count != 2 {
		t.Errorf("merged histogram count = %d, want 2", snap[1].Histograms[switchDurationKey].Count)
	}
}
