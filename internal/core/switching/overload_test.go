package switching_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core/switching"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/simnet"
)

// TestOverloadConfigValidate pins the rejection of nonsensical overload
// knobs, and that Config.Validate reaches them through the Overload
// pointer.
func TestOverloadConfigValidate(t *testing.T) {
	valid := switching.OverloadConfig{
		IngressQueueCap: 16, EgressQueueCap: 8,
		LowWatermark: 2, HighWatermark: 6,
		ServiceInterval: time.Millisecond, RetryBackoff: 2 * time.Millisecond,
		MaxRetryShift: 3,
	}
	cases := []struct {
		name    string
		mutate  func(*switching.OverloadConfig)
		wantErr string
	}{
		{"valid", func(*switching.OverloadConfig) {}, ""},
		{"defaults only", func(c *switching.OverloadConfig) {
			*c = switching.OverloadConfig{IngressQueueCap: 4, EgressQueueCap: 4}
		}, ""},
		// High defaults to 3/4 of the egress cap, 3 here: Validate must
		// judge Low against it, as New does.
		{"low at the default high", func(c *switching.OverloadConfig) {
			*c = switching.OverloadConfig{IngressQueueCap: 8, EgressQueueCap: 4, LowWatermark: 3}
		}, "must be below high"},
		{"zero ingress cap", func(c *switching.OverloadConfig) { c.IngressQueueCap = 0 }, "ingress queue cap"},
		{"negative ingress cap", func(c *switching.OverloadConfig) { c.IngressQueueCap = -1 }, "ingress queue cap"},
		{"zero egress cap", func(c *switching.OverloadConfig) { c.EgressQueueCap = 0 }, "egress queue cap"},
		{"negative watermark", func(c *switching.OverloadConfig) { c.LowWatermark = -1 }, "negative overload watermark"},
		{"low at high", func(c *switching.OverloadConfig) { c.LowWatermark = c.HighWatermark }, "must be below high"},
		{"low above high", func(c *switching.OverloadConfig) { c.LowWatermark = c.HighWatermark + 1 }, "must be below high"},
		{"high above cap", func(c *switching.OverloadConfig) { c.HighWatermark = c.EgressQueueCap + 1 }, "above egress queue cap"},
		{"negative service interval", func(c *switching.OverloadConfig) { c.ServiceInterval = -time.Millisecond }, "negative overload interval"},
		{"negative retry backoff", func(c *switching.OverloadConfig) { c.RetryBackoff = -time.Millisecond }, "negative overload interval"},
		{"retry shift too large", func(c *switching.OverloadConfig) { c.MaxRetryShift = 17 }, "out of range"},
		{"negative retry shift", func(c *switching.OverloadConfig) { c.MaxRetryShift = -1 }, "out of range"},
	}
	for _, tc := range cases {
		ovl := valid
		tc.mutate(&ovl)
		err := ovl.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.wantErr)
		}
	}

	// The Config-level hook: a bad overload block fails Config.Validate.
	cfg := switching.Config{
		Protocols:     orderedPair(),
		TokenInterval: 2 * time.Millisecond,
		Overload:      &switching.OverloadConfig{IngressQueueCap: 4, EgressQueueCap: -4},
	}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "egress queue cap") {
		t.Errorf("Config.Validate let a bad overload block through: %v", err)
	}
}

// TestOverloadFlood drives a four-member cluster where every member
// casts far faster than the configured service capacity, and asserts
// the overload layer's contract end to end: queues never exceed their
// caps, backpressure engages, rejected sends retry, the conservation
// ledger balances on every member, and the traffic that was sent is
// still delivered in one common total order (ingress sheds look like
// network loss, which the reliable FIFO repairs).
func TestOverloadFlood(t *testing.T) {
	const n = 4
	col := obs.NewCollector()
	cfg := switching.Config{
		Recorder:      col,
		TokenInterval: 2 * time.Millisecond,
		Overload: &switching.OverloadConfig{
			IngressQueueCap: 4,
			EgressQueueCap:  4,
			LowWatermark:    1,
			HighWatermark:   3,
			ServiceInterval: 300 * time.Microsecond,
			RetryBackoff:    600 * time.Microsecond,
			MaxRetryShift:   2,
		},
	}
	c := newCluster(t, 7, simnet.Config{Nodes: n, PropDelay: 100 * time.Microsecond}, n, cfg)

	// The flood: every member casts 30 messages at a 40µs cadence —
	// nearly 8× the egress service rate, and together almost 10× any
	// single ingress service rate.
	for p := 0; p < n; p++ {
		for i := 0; i < 30; i++ {
			p, i := p, i
			c.Sim.At(time.Duration(i)*40*time.Microsecond, func() {
				m := proto.AppMsg{
					ID:     proto.MakeMsgID(ids.ProcID(p), uint32(i)),
					Sender: ids.ProcID(p),
					Body:   []byte(fmt.Sprintf("e0-f%d.%02d", p, i)),
				}
				_ = c.Members[p].Switch.Cast(m.Encode())
			})
		}
	}
	// Long tail so retries resolve, queues drain, and FIFO repairs the
	// ingress sheds.
	c.Run(500 * time.Millisecond)
	c.Stop()

	var totalShed, totalBP, totalRetried, totalSent uint64
	for p := 0; p < n; p++ {
		sw := c.Members[p].Switch
		st := sw.Stats()
		a := sw.OverloadAccounting()
		if a.IngressMaxDepth > a.IngressCap || a.EgressMaxDepth > a.EgressCap {
			t.Errorf("member %d: queue depth exceeded cap: ingress %d/%d egress %d/%d",
				p, a.IngressMaxDepth, a.IngressCap, a.EgressMaxDepth, a.EgressCap)
		}
		if a.Casts != a.EgressAdmitted+a.EgressRetrying+a.EgressShed {
			t.Errorf("member %d: egress ledger unbalanced: %+v", p, a)
		}
		if a.EgressAdmitted != a.EgressSent+a.EgressQueued {
			t.Errorf("member %d: egress admitted ledger unbalanced: %+v", p, a)
		}
		if a.IngressAdmitted != a.IngressServed+a.IngressQueued {
			t.Errorf("member %d: ingress ledger unbalanced: %+v", p, a)
		}
		if a.Casts != 30 {
			t.Errorf("member %d: layer saw %d casts, want 30", p, a.Casts)
		}
		if a.EgressQueued != 0 || a.EgressRetrying != 0 {
			t.Errorf("member %d: egress not drained after the flood: %+v", p, a)
		}
		totalShed += st.Shed
		totalBP += st.Backpressured
		totalRetried += st.RetriedSends
		totalSent += a.EgressSent
	}
	if totalShed == 0 {
		t.Error("flood never shed a frame — the caps were not exercised")
	}
	if totalBP == 0 {
		t.Error("flood never crossed the high watermark")
	}
	if totalRetried == 0 {
		t.Error("flood never retried a rejected send")
	}
	onOff := make(map[obs.EventType]int)
	for _, e := range col.Events() {
		onOff[e.Type]++
	}
	if onOff[obs.EvBackpressureOn] == 0 || onOff[obs.EvBackpressureOff] == 0 {
		t.Errorf("the trace has %d pauses and %d resumes, want both > 0",
			onOff[obs.EvBackpressureOn], onOff[obs.EvBackpressureOff])
	}

	// Everything actually sent is delivered everywhere, in one order:
	// shedding degraded throughput, never consistency.
	ref, err := c.AppBodies(0)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(ref)) != totalSent {
		t.Errorf("member 0 delivered %d messages, want the %d egress-sent casts", len(ref), totalSent)
	}
	for p := 1; p < n; p++ {
		got, err := c.AppBodies(ids.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("member %d delivered %d, member 0 delivered %d", p, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("member %d disagrees with member 0 at %d: %q vs %q", p, i, got[i], ref[i])
			}
		}
	}
}
