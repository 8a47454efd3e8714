package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core/switching"
	"repro/internal/harness/engine"
	"repro/internal/ids"
	"repro/internal/simnet"
)

// This file is E17: the flash-crowd study. A steady workload runs with
// the overload layer enabled; mid-run the active sender population is
// multiplied (the flash crowd), held for a window, and released. The
// experiment reports delivery latency in three phases — before, during,
// and after the spike — plus the overload layer's shed/backpressure/
// retry totals, answering the ROADMAP's question: when senders spike
// 10x, does the system degrade gracefully and recover, instead of
// growing queues without bound?

// flashMultipliers are the spike sizes the study sweeps.
var flashMultipliers = []int{2, 4, 10}

// The crowd sits inside the measurement window: it starts flashSpikeStart
// after warmup and lasts flashSpikeDur. The "after" latency bucket waits
// flashRecoveryGrace past the spike's end, giving the queues their drain
// time.
const (
	flashSpikeStart    = 2 * time.Second
	flashSpikeDur      = time.Second
	flashRecoveryGrace = 2 * time.Second
)

// flashCrowdRun is the study's base workload: a smaller, faster variant
// of the §7 setup (6 members, 2 senders at 100 msg/s).
//
// It runs on a faster NIC than the paper's calibrated early-90s
// Ethernet: with 600µs-per-packet receive processing the network
// model's (unbounded) CPU queue would absorb the spike before the
// switching layer's bounded queues ever saw it. Here protocol
// processing is cheap and the overload layer is the bottleneck, which
// is the regime the study is about.
func flashCrowdRun(seed int64) RunConfig {
	return RunConfig{
		Seed:          seed,
		Group:         6,
		ActiveSenders: 2,
		RatePerSender: 100,
		MsgBytes:      512,
		Warmup:        time.Second,
		Measure:       7 * time.Second,
		Drain:         2 * time.Second,
		Net: &simnet.Config{
			PropDelay:     50 * time.Microsecond,
			BitsPerSecond: 100e6,
			FrameOverhead: 64,
			RecvCPU:       100 * time.Microsecond,
			SendCPU:       50 * time.Microsecond,
		},
	}
}

// flashCrowdOverload is the switching layer's protection, with caps
// tight enough that a 10x crowd visibly sheds.
//
// The operating point encodes a lesson the first tunings learned the
// hard way: an ingress shed is a FIFO gap the reliable layer repairs by
// NACK + retransmit, and under sustained overload the repair traffic
// itself re-saturates the queues (congestion collapse — E17's "after"
// column never recovers). So the layer sheds at the *source*: ingress
// service keeps headroom over the 10x crowd's arrival rate, while the
// tight egress cap turns away burst excess before it ever costs a
// sequence number — a shed cast needs no repair, so admitted traffic
// keeps flowing at bounded latency.
var flashCrowdOverload = switching.OverloadConfig{
	IngressQueueCap: 64,
	EgressQueueCap:  3,
	HighWatermark:   2,
	LowWatermark:    1,
	ServiceInterval: 200 * time.Microsecond,
	RetryBackoff:    2 * time.Millisecond,
	MaxRetryShift:   2,
}

// FlashCrowdRow is one spike multiplier's outcome.
type FlashCrowdRow struct {
	Multiplier int
	// Before/During/After are delivery-latency stats bucketed by send
	// time relative to the spike window (After starts flashRecoveryGrace
	// past the spike's end).
	Before, During, After LatencyStats
	// Overload counters summed over the group.
	Shed, Backpressured, RetriedSends uint64
	// BasePaused counts base-sender ticks skipped under backpressure.
	BasePaused uint64
	// ShedRate is Shed over every frame offered to the overload layer.
	ShedRate float64
	// MaxIngressDepth/MaxEgressDepth are the deepest any member's
	// queues got (bounded-memory evidence against the caps).
	MaxIngressDepth, MaxEgressDepth int
	IngressCap, EgressCap           int
	Delivered                       uint64
	Events                          uint64
}

// RunFlashCrowd sweeps the spike multipliers. Each multiplier is one
// deterministic run seeded from seed; the sweep parallelizes over them
// on parallel workers (<= 0 uses GOMAXPROCS), and the rows are identical
// for any worker count.
func RunFlashCrowd(seed int64, parallel int) ([]FlashCrowdRow, error) {
	pool := engine.New(parallel)
	return engine.Map(pool, len(flashMultipliers), seed,
		func(j engine.Job) (FlashCrowdRow, error) {
			return runFlashCrowd(j.Seed, flashMultipliers[j.Index])
		})
}

// spikeBurst is how many casts a crowd stream issues back-to-back per
// tick (the tick interval stretches by the same factor, preserving the
// stream's average rate while concentrating its arrivals).
const spikeBurst = 6

// runFlashCrowd measures one spike multiplier.
func runFlashCrowd(seed int64, mult int) (FlashCrowdRow, error) {
	rc := flashCrowdRun(seed)
	ovl := flashCrowdOverload
	run, err := NewSwitchedRun(rc, switching.Config{Overload: &ovl})
	if err != nil {
		return FlashCrowdRow{}, err
	}
	run.Collector.keepTimes = true
	sim := run.Cluster.Sim
	interval := time.Duration(float64(time.Second) / rc.RatePerSender)
	stopAt := rc.Warmup + rc.Measure
	spikeStart := rc.Warmup + flashSpikeStart
	spikeEnd := spikeStart + flashSpikeDur

	// Base senders: the steady workload, phase-shifted and jittered like
	// senderSchedule, but backpressure-aware — a paused member skips the
	// tick (and the skip is counted) instead of piling onto the queue.
	var basePaused uint64
	for s := 0; s < rc.ActiveSenders; s++ {
		p := ids.ProcID(s)
		phase := time.Duration(s) * interval / time.Duration(rc.ActiveSenders)
		var tick func()
		tick = func() {
			if sim.Now() >= stopAt {
				return
			}
			if run.Cluster.Members[p].Switch.Backpressured() {
				basePaused++
			} else {
				run.Cast(p)
			}
			jitter := time.Duration(sim.Rand().Int63n(int64(interval / 5)))
			sim.After(interval-interval/10+jitter, tick)
		}
		sim.After(phase, tick)
	}

	// The crowd: (mult-1)x extra sender streams riding the base members,
	// alive only inside the spike window. Crowds do not cooperate — the
	// extra streams ignore backpressure, and they arrive in clumps
	// (spikeBurst casts back-to-back per tick, with the tick stretched so
	// the average rate is still one base rate per stream): flash crowds
	// are bursty, and the bursts are what slam the bounded queues.
	sim.At(spikeStart, func() { _ = run.Cluster.Net.SetSenderSpike(mult) })
	sim.At(spikeEnd, func() { _ = run.Cluster.Net.SetSenderSpike(1) })
	extra := (mult - 1) * rc.ActiveSenders
	for j := 0; j < extra; j++ {
		p := ids.ProcID(j % rc.ActiveSenders)
		phase := time.Duration(j+1) * interval / time.Duration(extra+1)
		var tick func()
		tick = func() {
			if sim.Now() >= spikeEnd {
				return
			}
			for b := 0; b < spikeBurst; b++ {
				run.Cast(p)
			}
			burstIvl := spikeBurst * interval
			jitter := time.Duration(sim.Rand().Int63n(int64(burstIvl / 5)))
			sim.After(burstIvl-burstIvl/10+jitter, tick)
		}
		sim.After(spikeStart+phase, tick)
	}

	res := run.Finish()

	var before, during, after []time.Duration
	for _, ts := range run.Collector.timed {
		switch {
		case ts.sentAt < spikeStart:
			before = append(before, ts.lat)
		case ts.sentAt < spikeEnd:
			during = append(during, ts.lat)
		case ts.sentAt >= spikeEnd+flashRecoveryGrace:
			after = append(after, ts.lat)
		}
	}
	row := FlashCrowdRow{
		Multiplier: mult,
		Before:     Summarize(before),
		During:     Summarize(during),
		After:      Summarize(after),
		BasePaused: basePaused,
		IngressCap: ovl.IngressQueueCap,
		EgressCap:  ovl.EgressQueueCap,
		Delivered:  res.Delivered,
		Events:     res.Events,
	}
	var offered uint64
	for p := 0; p < rc.Group; p++ {
		sw := run.Cluster.Members[p].Switch
		st := sw.Stats()
		row.Shed += st.Shed
		row.Backpressured += st.Backpressured
		row.RetriedSends += st.RetriedSends
		a := sw.OverloadAccounting()
		offered += a.IngressAdmitted + a.IngressShed + a.Casts
		if a.IngressMaxDepth > row.MaxIngressDepth {
			row.MaxIngressDepth = a.IngressMaxDepth
		}
		if a.EgressMaxDepth > row.MaxEgressDepth {
			row.MaxEgressDepth = a.EgressMaxDepth
		}
	}
	if offered > 0 {
		row.ShedRate = float64(row.Shed) / float64(offered)
	}
	return row, nil
}

// RenderFlashCrowd prints the E17 table.
func RenderFlashCrowd(rows []FlashCrowdRow) string {
	var b strings.Builder
	b.WriteString("Flash crowd (E17): mid-run sender spikes vs. the overload layer\n\n")
	b.WriteString("mult   p50 before   p50 during    p50 after   shed rate   backpressure   retries   paused   maxq in/eg\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%3dx   %10s   %10s   %10s   %8.2f%%   %12d   %7d   %6d   %5d/%d\n",
			r.Multiplier,
			FormatMillis(r.Before.P50), FormatMillis(r.During.P50), FormatMillis(r.After.P50),
			100*r.ShedRate, r.Backpressured, r.RetriedSends, r.BasePaused,
			r.MaxIngressDepth, r.MaxEgressDepth)
	}
	b.WriteString("\nlatency buckets by send time: before the spike, inside it, and after\n")
	b.WriteString("a recovery grace past its end; queues are capped, so overload sheds\n")
	b.WriteString("(loudly) instead of growing memory without bound.\n")
	return b.String()
}
