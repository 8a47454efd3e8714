package harness

import (
	"reflect"
	"testing"
)

// TestFlashCrowdRecovery is the E17 acceptance check: a 10x mid-run
// sender spike must degrade gracefully — queues stay inside their caps,
// excess load is shed loudly at the source, backpressure engages — and
// the system must recover to its pre-spike latency once the crowd
// leaves, rather than spiraling into retransmission-driven collapse.
func TestFlashCrowdRecovery(t *testing.T) {
	rows, err := RunFlashCrowd(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(flashMultipliers) {
		t.Fatalf("got %d rows, want %d", len(rows), len(flashMultipliers))
	}
	r := rows[len(rows)-1]
	if r.Multiplier != 10 {
		t.Fatalf("last row is the %dx crowd, want 10x", r.Multiplier)
	}
	if r.Before.Count == 0 || r.During.Count == 0 {
		t.Fatalf("latency buckets empty: before %d during %d", r.Before.Count, r.During.Count)
	}
	if r.After.Count == 0 {
		t.Fatal("no deliveries after the recovery grace — the spike never cleared")
	}
	// Recovery: the post-spike median is back in the pre-spike regime.
	// 2x is a generous envelope — a collapsed run is off by 100x+.
	if r.After.P50 > 2*r.Before.P50 {
		t.Errorf("latency did not recover: p50 before %v, after %v", r.Before.P50, r.After.P50)
	}
	// Bounded memory: the caps held.
	if r.MaxIngressDepth > r.IngressCap {
		t.Errorf("ingress queue peaked at %d, cap %d", r.MaxIngressDepth, r.IngressCap)
	}
	if r.MaxEgressDepth > r.EgressCap {
		t.Errorf("egress queue peaked at %d, cap %d", r.MaxEgressDepth, r.EgressCap)
	}
	// The protection mechanisms all actually engaged: a vacuous pass
	// (crowd absorbed without effort) would prove nothing about them.
	if r.Shed == 0 {
		t.Error("a 10x crowd shed nothing — the caps were not exercised")
	}
	if r.Backpressured == 0 {
		t.Error("a 10x crowd never crossed the high watermark")
	}
	if r.RetriedSends == 0 {
		t.Error("a 10x crowd never retried a rejected send")
	}
	if r.BasePaused == 0 {
		t.Error("base senders never paused under backpressure")
	}
	if r.Delivered == 0 {
		t.Error("nothing delivered")
	}
}

// TestFlashCrowdParallelIdentical pins the sweep's determinism: the
// rows are byte-identical whether the multipliers run on one worker or
// four.
func TestFlashCrowdParallelIdentical(t *testing.T) {
	seq, err := RunFlashCrowd(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunFlashCrowd(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("flash-crowd rows differ across parallelism:\nseq %+v\npar %+v", seq, par)
	}
}
