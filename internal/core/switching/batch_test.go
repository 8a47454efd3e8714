package switching_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core/switching"
	"repro/internal/core/switching/swtest"
	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/protocols/fifo"
	"repro/internal/protocols/seqorder"
	"repro/internal/protocols/tokenorder"
	"repro/internal/simnet"
)

// Integration tests for egress batching (OverloadConfig.BatchMax > 1):
// configuration validation, conservation under a shedding flood,
// run-to-run determinism, and batching composed with the authenticated
// session across a switch round.

// batchedFloodConfig is the TestOverloadFlood configuration with
// batching enabled: up to 4 mux frames per sealed wire write.
func batchedFloodConfig() switching.Config {
	return switching.Config{
		TokenInterval: 2 * time.Millisecond,
		Overload: &switching.OverloadConfig{
			IngressQueueCap: 4,
			EgressQueueCap:  4,
			LowWatermark:    1,
			HighWatermark:   3,
			ServiceInterval: 300 * time.Microsecond,
			RetryBackoff:    600 * time.Microsecond,
			MaxRetryShift:   2,
			BatchMax:        4,
		},
	}
}

func TestBatchMaxValidate(t *testing.T) {
	cases := []struct {
		batchMax int
		wantErr  string
	}{
		{0, ""}, // legacy: batching off
		{1, ""}, // explicit one-per-write: batching off
		{4, ""},
		{256, ""}, // ceiling
		{-1, "batch max"},
		{257, "batch max"},
	}
	for _, tc := range cases {
		cfg := switching.OverloadConfig{IngressQueueCap: 4, EgressQueueCap: 4, BatchMax: tc.batchMax}
		err := cfg.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("BatchMax %d: unexpected error: %v", tc.batchMax, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("BatchMax %d: got %v, want error containing %q", tc.batchMax, err, tc.wantErr)
		}
	}
}

// floodCluster drives the TestOverloadFlood traffic shape (every member
// casting far faster than the service capacity) against the given
// configuration and returns the stopped cluster.
func floodCluster(t *testing.T, seed int64, cfg switching.Config) *clusterResult {
	t.Helper()
	const n = 4
	c := newCluster(t, seed, simnet.Config{Nodes: n, PropDelay: 100 * time.Microsecond}, n, cfg)
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
	c.Run(500 * time.Millisecond)
	c.Stop()

	res := &clusterResult{}
	for p := 0; p < n; p++ {
		sw := c.Members[p].Switch
		res.stats = append(res.stats, sw.Stats())
		res.accounting = append(res.accounting, sw.OverloadAccounting())
		bodies, err := c.AppBodies(ids.ProcID(p))
		if err != nil {
			t.Fatal(err)
		}
		res.bodies = append(res.bodies, bodies)
	}
	return res
}

// clusterResult captures everything observable about one flood run —
// the material both the conservation and the determinism tests check.
type clusterResult struct {
	stats      []switching.Stats
	accounting []switching.OverloadAccounting
	bodies     [][]string
}

// TestBatchedFloodConservation reruns the overload-flood contract with
// batching enabled: queue caps hold, the conservation ledger balances on
// every member (shed-at-source counts every frame of an abandoned cast,
// never silently losing part of a batch), and whatever was sent is
// delivered everywhere in one order.
func TestBatchedFloodConservation(t *testing.T) {
	res := floodCluster(t, 7, batchedFloodConfig())

	var totalShed, totalSent uint64
	for p := range res.stats {
		st, a := res.stats[p], res.accounting[p]
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
		if st.MalformedDropped != 0 {
			t.Errorf("member %d: %d malformed drops — batch frames misparsed", p, st.MalformedDropped)
		}
		totalShed += st.Shed
		totalSent += a.EgressSent
	}
	if totalShed == 0 {
		t.Error("flood never shed a frame — the caps were not exercised")
	}

	// Everything actually sent is delivered everywhere, in one order.
	ref := res.bodies[0]
	if uint64(len(ref)) != totalSent {
		t.Errorf("member 0 delivered %d messages, want the %d egress-sent casts", len(ref), totalSent)
	}
	for p := 1; p < len(res.bodies); p++ {
		got := res.bodies[p]
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

// TestBatchedDeterminism runs the identical batched flood twice from the
// same seed and requires bit-identical outcomes: same deliveries on
// every member, same counters, same conservation ledger. Batching
// accumulates per-destination groups in slices flushed in first-use
// order — this test is the regression net for any future map-iteration
// (or other nondeterminism) sneaking into the flush path.
func TestBatchedDeterminism(t *testing.T) {
	a := floodCluster(t, 11, batchedFloodConfig())
	b := floodCluster(t, 11, batchedFloodConfig())
	for p := range a.stats {
		if a.stats[p] != b.stats[p] {
			t.Errorf("member %d: stats diverged across identical runs:\n  %+v\n  %+v", p, a.stats[p], b.stats[p])
		}
		if a.accounting[p] != b.accounting[p] {
			t.Errorf("member %d: accounting diverged across identical runs:\n  %+v\n  %+v", p, a.accounting[p], b.accounting[p])
		}
		if len(a.bodies[p]) != len(b.bodies[p]) {
			t.Fatalf("member %d: delivered %d vs %d across identical runs", p, len(a.bodies[p]), len(b.bodies[p]))
		}
		for i := range a.bodies[p] {
			if a.bodies[p][i] != b.bodies[p][i] {
				t.Fatalf("member %d: delivery %d diverged: %q vs %q", p, i, a.bodies[p][i], b.bodies[p][i])
			}
		}
	}
}

// TestBatchedAcrossSwitch composes batching with the authenticated
// session and a protocol switch under steady traffic. The epoch-flush
// rule is what this exercises end to end: if a batch straddled the key
// roll, frames sealed under the retired epoch would coalesce with
// new-epoch frames and the whole batch would fail its MAC — visible as
// AuthFailed drops and broken agreement. Traffic stays below the service
// capacity so nothing is shed and the delivery count is exact.
func TestBatchedAcrossSwitch(t *testing.T) {
	const n, per = 4, 10
	cfg := switching.Config{
		TokenInterval: 2 * time.Millisecond,
		Defense: &switching.DefenseConfig{
			QuarantineThreshold: 1000,
			Auth:                &switching.AuthConfig{SessionKey: []byte("batched session key")},
		},
		Overload: &switching.OverloadConfig{
			IngressQueueCap: 16,
			EgressQueueCap:  16,
			LowWatermark:    2,
			HighWatermark:   12,
			ServiceInterval: 200 * time.Microsecond,
			RetryBackoff:    600 * time.Microsecond,
			MaxRetryShift:   2,
			BatchMax:        4,
		},
	}
	c := newCluster(t, 13, simnet.Config{Nodes: n, PropDelay: 100 * time.Microsecond}, n, cfg)
	for p := 0; p < n; p++ {
		for i := 0; i < per; i++ {
			p, i := p, i
			c.Sim.At(time.Duration(i)*2*time.Millisecond, func() {
				m := proto.AppMsg{
					ID:     proto.MakeMsgID(ids.ProcID(p), uint32(i)),
					Sender: ids.ProcID(p),
					Body:   []byte(fmt.Sprintf("f%d.%02d", p, i)),
				}
				_ = c.Members[p].Switch.Cast(m.Encode())
			})
		}
	}
	// Switch mid-flood: the key roll lands while batches are in flight
	// and accumulating.
	c.Sim.At(8*time.Millisecond, func() { c.Members[0].Switch.RequestSwitch() })
	c.Run(500 * time.Millisecond)
	c.Stop()

	for p := 0; p < n; p++ {
		st := c.Members[p].Switch.Stats()
		if st.AuthFailed != 0 {
			t.Errorf("member %d: %d auth failures — a batch straddled the key roll", p, st.AuthFailed)
		}
		if st.MalformedDropped != 0 {
			t.Errorf("member %d: %d malformed drops", p, st.MalformedDropped)
		}
		if st.Shed != 0 {
			t.Errorf("member %d: %d shed under sub-capacity traffic", p, st.Shed)
		}
		if st.SwitchesCompleted != 1 {
			t.Errorf("member %d: completed %d switches, want 1", p, st.SwitchesCompleted)
		}
	}
	assertAgreement(t, c, n*per)
}

// scribbleSpares overwrites every buffer the members of c hold spare —
// the ones their next frames will be built in — to its full capacity,
// and leaves the stacks as they were: what the next sends would do to
// them.
func scribbleSpares(c *swtest.SwitchedCluster) {
	for _, m := range c.Members {
		for _, sp := range switching.MemberSpares(m.Switch) {
			bufs := make([][]byte, sp.Len())
			for i := range bufs {
				bufs[i] = sp.Get(0)
				b := bufs[i][:cap(bufs[i])]
				for j := range b {
					b[j] = 0xAA
				}
			}
			for i := len(bufs) - 1; i >= 0; i-- {
				sp.Put(bufs[i])
			}
		}
	}
}

// TestRetainedViewsSurviveBufferReuse pins what the borrowing rule
// rests on: simnet snapshots a frame when it is sent, and what receivers
// keep past the call is a copy of it — frames waiting in the overload
// ingress queue, token-batch entries behind a gap, new-epoch messages
// held in Switch.buffer across a switch — so all of it still reads
// correctly after the sender has re-used every spare buffer the frame
// was built in, and the network has recycled the frame itself.
func TestRetainedViewsSurviveBufferReuse(t *testing.T) {
	const n, per = 4, 20
	cfg := switching.Config{
		TokenInterval: 2 * time.Millisecond,
		// Token order first: it drains slowly, so sequencer traffic sent
		// after PREPARE overtakes it and is buffered.
		Protocols: []switching.ProtocolFactory{
			func(proto.Env) []proto.Layer {
				return []proto.Layer{
					tokenorder.New(tokenorder.Config{HoldDelay: 2 * time.Millisecond, BatchFlush: true}),
					fifo.New(fifo.Config{}),
				}
			},
			func(proto.Env) []proto.Layer {
				return []proto.Layer{seqorder.New(0), fifo.New(fifo.Config{})}
			},
		},
		Defense: &switching.DefenseConfig{
			QuarantineThreshold: 1000,
			Auth:                &switching.AuthConfig{SessionKey: []byte("zero-copy session key")},
		},
		Overload: &switching.OverloadConfig{
			IngressQueueCap: 32,
			EgressQueueCap:  32,
			ServiceInterval: 200 * time.Microsecond,
			BatchMax:        4,
		},
	}
	c := newCluster(t, 17, simnet.Config{Nodes: n, PropDelay: 100 * time.Microsecond}, n, cfg)
	want := map[string]bool{}
	for p := 0; p < n; p++ {
		for i := 0; i < per; i++ {
			p, i := p, i
			body := fmt.Sprintf("f%d.%02d", p, i)
			want[body] = true
			c.Sim.At(time.Duration(i)*time.Millisecond, func() {
				m := proto.AppMsg{ID: proto.MakeMsgID(ids.ProcID(p), uint32(i)), Sender: ids.ProcID(p), Body: []byte(body)}
				_ = c.Members[p].Switch.Cast(m.Encode())
			})
		}
	}
	c.Sim.At(8*time.Millisecond, func() { c.Members[0].Switch.RequestSwitch() })
	for at := time.Duration(0); at < 100*time.Millisecond; at += 50 * time.Microsecond {
		c.Sim.At(at, func() { scribbleSpares(c) })
	}
	c.Run(500 * time.Millisecond)
	c.Stop()

	var buffered uint64
	queued := 0
	for p := 0; p < n; p++ {
		st := c.Members[p].Switch.Stats()
		if st.AuthFailed != 0 || st.MalformedDropped != 0 || st.Shed != 0 || st.SwitchesCompleted != 1 {
			t.Errorf("member %d: auth failed %d, malformed %d, shed %d, switches %d; want 0, 0, 0, 1",
				p, st.AuthFailed, st.MalformedDropped, st.Shed, st.SwitchesCompleted)
		}
		buffered += st.Buffered
		queued = max(queued, c.Members[p].Switch.OverloadAccounting().IngressMaxDepth)
	}
	if buffered == 0 || queued < 2 {
		t.Fatalf("scenario retained too little: %d messages buffered across the switch, ingress depth %d", buffered, queued)
	}
	assertAgreement(t, c, n*per)
	got, err := c.AppBodies(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if !want[b] {
			t.Fatalf("delivered a body nobody sent (or sent twice): %q", b)
		}
		delete(want, b)
	}
}
