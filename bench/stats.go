package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// measurement is the host-side bill of one timed region: wall time, the
// CPU time the process was charged (user + system, the collector's work
// included), and what it allocated.
type measurement struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	peakRSSMB      float64 // high-water resident set of the region
}

// add folds a later region into m, as if the two had been one.
func (m *measurement) add(o measurement) {
	m.wall += o.wall
	m.cpu += o.cpu
	m.mallocs += o.mallocs
	m.bytes += o.bytes
	if o.peakRSSMB > m.peakRSSMB {
		m.peakRSSMB = o.peakRSSMB
	}
}

// cpuTime is the CPU time charged to the process so far. Unlike the
// wall clock it does not run while the hypervisor has given the core to
// someone else (steal comes in phases of up to 70 % on the sandbox this
// benchmark is gated on). What it cannot see is the box running slower
// while the process has the core; the canary, below, is for that.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at
// the current resident set, so that a peak belongs to one timed region
// and peak_rss_mb can be a median over repeats like every other host
// metric: a maximum over a whole run is set by its one worst moment.
// Where the kernel refuses, every region reports the run's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident-set high-water mark since the last reset.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measure settles the heap, so the deltas belong to fn and not to
// whatever ran before, then clocks fn.
func measure(fn func()) measurement {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resetPeakRSS()
	start, cpu := time.Now(), cpuTime()
	fn()
	m := measurement{wall: time.Since(start), cpu: cpuTime() - cpu, peakRSSMB: peakRSSMB()}
	runtime.ReadMemStats(&after)
	m.mallocs, m.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	return m
}

// The canary is a fixed piece of work — fresh small objects put into and
// taken out of a map — whose only purpose is to be timed. This sandbox's
// speed on allocation-heavy code shifts by up to 1.9x for minutes at a
// time (neighbours on the host; a SHA-256 loop moves 6 % in the same
// phases), and the canary moves with the workloads: ten runs across both
// phases spread by 23 to 34 % (interquartile) per CPU second and by 3.5
// to 10 % per calibrated second on the four workloads (calibration.json
// has the runs). Host seconds are therefore calibrated: CPU seconds
// divided by how much slower than canaryNominal the canary ran around
// them.
//
// A reading is taken from a settled heap while nothing of the program is
// live — between repeats, on fault_mix between schedules too, never
// inside a simulation. With a cluster live a reading depends on that
// cluster's heap (1.4x higher inside seq_steady than around it), and the
// clock would be calibrated against the program it times.
const (
	canaryNominal = 300 * time.Microsecond
	canaryRounds  = 64
	canaryWarmup  = 24
	canaryObjects = 3000
)

var canarySink *[64]byte

// canary takes one reading: the mean CPU time of a round, over rounds.
// The untimed rounds before them take the collector through one cycle,
// so that the timed ones reuse its pages: faulting pages in costs the
// canary ten times what it costs the workloads per CPU second, and the
// price of a fault on this box has phases of its own.
func canary(rounds int) time.Duration {
	runtime.GC()
	var start time.Duration
	for r := -canaryWarmup; r < rounds; r++ {
		if r == 0 {
			start = cpuTime()
		}
		m := map[uint64]*[64]byte{}
		for i := uint64(0); i < canaryObjects; i++ {
			v := new([64]byte)
			m[i*2654435761%4096] = v
			canarySink = v
		}
		for i := uint64(0); i < canaryObjects; i++ {
			delete(m, i*2654435761%4096)
		}
	}
	return (cpuTime() - start) / time.Duration(rounds)
}

// slowdown is how much slower than nominal the box ran between two
// readings (1: nominal speed). CPU seconds divided by it are calibrated
// seconds.
func slowdown(before, after time.Duration) float64 {
	return float64(before+after) / float64(2*canaryNominal)
}

// quantile returns the nearest-rank q-quantile of sorted (ascending)
// values: the smallest element with at least q of the sample at or below
// it. It is exact — no interpolation, no histogram buckets.
func quantile[T any](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summary is the spread of one host-side metric over a run's repeats.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

// summarize reports the median and quartiles (the inclusive method of
// Python's statistics.quantiles, which the acceptance procedure uses for
// run-to-run spread) of values, kept in measurement order.
func summarize(values []float64) summary {
	s := summary{Values: values}
	if len(values) == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	at := func(p float64) float64 { // linear interpolation at rank p*(n-1)
		r := p * float64(len(sorted)-1)
		lo := int(math.Floor(r))
		hi := int(math.Ceil(r))
		return sorted[lo] + (sorted[hi]-sorted[lo])*(r-float64(lo))
	}
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Q1, s.Median, s.Q3 = at(0.25), at(0.5), at(0.75)
	return s
}

// mix folds x into the running digest h, which starts at digestSeed
// (FNV-1a, a word at a time). The digest only has to tell two repeats
// apart.
func mix(h, x uint64) uint64 { return (h ^ x) * 1099511628211 }

const digestSeed uint64 = 14695981039346656037
