// Package harness drives the paper's evaluation (§7): workload
// generation, latency measurement, and the experiment loops that
// regenerate Figure 2, the switching-overhead measurement, and the
// oscillation/hysteresis study. See DESIGN.md §4 for the experiment
// index.
package harness

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// LatencyStats summarizes a sample of delivery latencies. It contains
// no pointers (the histogram is a fixed-shape value), so results stay
// comparable with == — the property the worker-count determinism tests
// rely on.
type LatencyStats struct {
	Count         int
	Mean          time.Duration
	StdDev        time.Duration
	Min           time.Duration
	P50, P95, P99 time.Duration
	Max           time.Duration
	// Hist is the log-scaled distribution of the same sample, exported
	// into the BENCH artifacts.
	Hist obs.Histogram
}

// Summarize computes statistics over a latency sample. It returns the
// zero value for an empty sample.
func Summarize(samples []time.Duration) LatencyStats {
	if len(samples) == 0 {
		return LatencyStats{}
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum float64
	for _, s := range sorted {
		sum += float64(s)
	}
	mean := sum / float64(len(sorted))
	var sq float64
	var hist obs.Histogram
	for _, s := range sorted {
		d := float64(s) - mean
		sq += d * d
		hist.Observe(s)
	}
	// Quantiles come from the bucketed histogram — the same estimator
	// the telemetry windows use, so offline tables and the windows
	// agree — clamped to the observed range (interpolation inside the
	// outermost buckets can otherwise step outside the sample).
	pct := func(q float64) time.Duration {
		v := hist.Quantile(q)
		if v < sorted[0] {
			v = sorted[0]
		}
		if v > sorted[len(sorted)-1] {
			v = sorted[len(sorted)-1]
		}
		return v
	}
	return LatencyStats{
		Count:  len(sorted),
		Mean:   time.Duration(mean),
		StdDev: time.Duration(math.Sqrt(sq / float64(len(sorted)))),
		Min:    sorted[0],
		P50:    pct(0.50),
		P95:    pct(0.95),
		P99:    pct(0.99),
		Max:    sorted[len(sorted)-1],
		Hist:   hist,
	}
}

// Millis renders a duration as fractional milliseconds (the unit of the
// paper's Figure 2 axis).
func Millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// FormatMillis renders a duration as e.g. "12.3".
func FormatMillis(d time.Duration) string {
	return fmt.Sprintf("%.1f", Millis(d))
}
