package chaos

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core/switching"
	"repro/internal/core/switching/swtest"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/property"
	"repro/internal/proto"
	"repro/internal/protocols/fd"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// checkConverged asserts the no-deadlock end state: every live member
// finished every switch round it entered and all live members agree on
// the protocol epoch.
func checkConverged(c *swtest.SwitchedCluster, live []ids.ProcID) []string {
	var v []string
	ref := c.Members[live[0]].Switch.Epoch()
	for _, p := range live {
		sw := c.Members[p].Switch
		if sw.Switching() {
			v = append(v, fmt.Sprintf("deadlock: member %v still mid-switch at end of run", p))
		}
		if got := sw.Epoch(); got != ref {
			v = append(v, fmt.Sprintf("epoch divergence: member %v at epoch %d, member %v at %d", p, got, live[0], ref))
		}
	}
	return v
}

// runTrace decodes every live member's deliveries once into one trace:
// members in id order, each in its own delivery order. Every delivery
// invariant reads this trace.
func runTrace(c *swtest.SwitchedCluster, live []ids.ProcID) (trace.Trace, error) {
	n := 0
	for _, p := range live {
		n += len(c.Members[p].Delivered)
	}
	tr := make(trace.Trace, 0, n)
	for _, p := range live {
		for _, d := range c.Members[p].Delivered {
			m, err := proto.DecodeApp(d.Payload)
			if err != nil {
				return nil, fmt.Errorf("chaos: member %v trace: %w", p, err)
			}
			tr = append(tr, trace.Deliver(p, m.TraceMessage()))
		}
	}
	return tr, nil
}

// block returns member p's deliveries: its contiguous run in a trace
// laid out as runTrace lays it out.
func block(tr trace.Trace, p ids.ProcID) trace.Trace {
	lo := sort.Search(len(tr), func(i int) bool { return tr[i].Deliverer >= p })
	hi := sort.Search(len(tr), func(i int) bool { return tr[i].Deliverer > p })
	return tr[lo:hi]
}

// deliveryProperties is the fixed list of paper predicates every run's
// trace is checked against: Total Order and Integrity, which Table 2 says
// SP preserves, and No Replay, which it does not (not Composable, §6.2)
// but Hardened's per-epoch key schedule provides across epochs.
// Integrity trusts the n members; forgedFrame names a sender outside.
func deliveryProperties(n int) []property.Property {
	trusted := make(map[ids.ProcID]bool, n)
	for p := range n {
		trusted[ids.ProcID(p)] = true
	}
	return []property.Property{
		property.TotalOrder{},
		property.Integrity{Trusted: trusted},
		property.NoReplay{},
	}
}

// checkDeliveries runs every delivery invariant on the run trace of the
// live members of an n-member group: liveness, the epoch boundary, and
// each of deliveryProperties. Violations come out in a fixed order.
func checkDeliveries(tr trace.Trace, live []ids.ProcID, n int) []string {
	v := checkLiveness(tr, live)
	v = append(v, checkEpochBoundary(tr, live)...)
	for _, prop := range deliveryProperties(n) {
		if !prop.Holds(tr) {
			v = append(v, narrow(prop, tr, live))
		}
	}
	return v
}

// narrow names who broke prop: the first live member whose deliveries
// alone fail it, else the first pair (Total Order is pairwise), at the
// delivery where that narrowed trace first fails. Failure path only.
func narrow(prop property.Property, tr trace.Trace, live []ids.ProcID) string {
	for _, p := range live {
		if sub := block(tr, p); !prop.Holds(sub) {
			return fmt.Sprintf("%s: member %v delivered %v", prop.Name(), p, sub[firstFailure(prop, sub)].Msg)
		}
	}
	for i, a := range live {
		for _, b := range live[i+1:] {
			sub := append(block(tr, a).Clone(), block(tr, b)...)
			if !prop.Holds(sub) {
				return fmt.Sprintf("%s: members %v and %v disagree at member %v's delivery of %v", prop.Name(), a, b, b, sub[firstFailure(prop, sub)].Msg)
			}
		}
	}
	return prop.Name() + ": violated by the run trace"
}

// firstFailure returns the index of the event that makes a prefix of tr
// first fail prop. Every checked property is a safety property (Table 2),
// so once a prefix fails every longer one does, and bisection finds it.
func firstFailure(prop property.Property, tr trace.Trace) int {
	return sort.Search(len(tr), func(i int) bool { return !prop.Holds(tr[:i+1]) })
}

// checkLiveness asserts that every live member delivered every live
// member's post-heal probe — the ring and both sub-protocols are still
// moving traffic after the faults.
func checkLiveness(tr trace.Trace, live []ids.ProcID) []string {
	var v []string
	for _, m := range live {
		got := block(tr, m)
		for _, p := range live {
			if !slices.ContainsFunc(got, func(e trace.Event) bool { return e.Msg.Sender == p && strings.Contains(e.Msg.Body, "-probe") }) {
				v = append(v, fmt.Sprintf("liveness: member %v never delivered member %v's post-heal probe", m, p))
			}
		}
	}
	return v
}

// checkEpochBoundary asserts the SP's own §2 contract (Table 1 has no
// such property): all old-protocol messages are delivered before any
// new-protocol ones, so the "e<epoch>-" tags are nondecreasing in each
// member's deliveries. It reports each member's first offending one.
func checkEpochBoundary(tr trace.Trace, live []ids.ProcID) []string {
	var v []string
	for _, p := range live {
		maxEpoch := -1
		for i, e := range block(tr, p) {
			epoch, ok := epochTag(e.Msg.Body)
			if !ok {
				v = append(v, fmt.Sprintf("epoch boundary: member %v delivered untagged body %q", p, e.Msg.Body))
				break
			}
			if epoch < maxEpoch {
				v = append(v, fmt.Sprintf("epoch boundary: member %v delivered epoch-%d %q at index %d after epoch-%d traffic", p, epoch, e.Msg.Body, i, maxEpoch))
				break
			}
			maxEpoch = max(maxEpoch, epoch)
		}
	}
	return v
}

// epochTag parses the "e<epoch>-" prefix cast puts on every body.
func epochTag(body string) (int, bool) {
	rest, tagged := strings.CutPrefix(body, "e")
	digits, _, dashed := strings.Cut(rest, "-")
	epoch, err := strconv.Atoi(digits)
	return epoch, tagged && dashed && err == nil
}

// checkBoundedMemory asserts the overload layer's first guarantee: no
// bounded queue ever exceeded its configured cap at any virtual time.
// The accounting tracks the high-water mark at every admission, so a
// single overshoot anywhere in the run is visible here. Vacuously true
// (caps zero, depths zero) when Config.Overload is off.
func checkBoundedMemory(c *swtest.SwitchedCluster, live []ids.ProcID) []string {
	var v []string
	for _, p := range live {
		a := c.Members[p].Switch.OverloadAccounting()
		if a.IngressCap > 0 && a.IngressMaxDepth > a.IngressCap {
			v = append(v, fmt.Sprintf("bounded memory: member %v ingress queue peaked at %d, cap %d", p, a.IngressMaxDepth, a.IngressCap))
		}
		if a.EgressCap > 0 && a.EgressMaxDepth > a.EgressCap {
			v = append(v, fmt.Sprintf("bounded memory: member %v egress queue peaked at %d, cap %d", p, a.EgressMaxDepth, a.EgressCap))
		}
	}
	return v
}

// checkNoSilentLoss asserts the overload layer's second guarantee: every
// message it admitted and did not deliver onward is accounted for in a
// shed, queued or retrying bucket — the conservation ledger balances.
// An unbalanced ledger means a frame vanished without a counter
// incrementing, i.e. a silent drop. Vacuously true when Config.Overload
// is off (every bucket zero).
func checkNoSilentLoss(c *swtest.SwitchedCluster, live []ids.ProcID) []string {
	var v []string
	for _, p := range live {
		a := c.Members[p].Switch.OverloadAccounting()
		if a.Casts != a.EgressAdmitted+a.EgressRetrying+a.EgressShed {
			v = append(v, fmt.Sprintf("silent loss: member %v casts=%d != admitted=%d + retrying=%d + shed=%d", p, a.Casts, a.EgressAdmitted, a.EgressRetrying, a.EgressShed))
		}
		if a.EgressAdmitted != a.EgressSent+a.EgressQueued {
			v = append(v, fmt.Sprintf("silent loss: member %v egress admitted=%d != sent=%d + queued=%d", p, a.EgressAdmitted, a.EgressSent, a.EgressQueued))
		}
		if a.IngressAdmitted != a.IngressServed+a.IngressQueued {
			v = append(v, fmt.Sprintf("silent loss: member %v ingress admitted=%d != served=%d + queued=%d", p, a.IngressAdmitted, a.IngressServed, a.IngressQueued))
		}
	}
	return v
}

// checkBoundedDisruption asserts the damping layer's first always-on
// guarantee: the recovery actions a run takes — token regenerations
// plus switch-round aborts, all members together — never exceed the
// budget within any single disruptionWindow of virtual time. A healthy
// run churns briefly around each fault and settles; a detector driven
// into continuous thrash by a flapping link fails here even if the run
// eventually converges. Vacuously true on quiet runs.
func checkBoundedDisruption(d *disruptionTracker, budget int) []string {
	var v []string
	idxs := make([]int64, 0, len(d.counts))
	for i := range d.counts {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	for _, i := range idxs {
		if n := d.counts[i]; n > budget {
			at := time.Duration(i) * disruptionWindow
			v = append(v, fmt.Sprintf("bounded disruption: %d recovery actions (regens+aborts) in window [%v,%v), budget %d",
				n, at, at+disruptionWindow, budget))
		}
	}
	return v
}

// checkEventualReinclusion asserts the damping layer's second always-on
// guarantee: once every fault heals and the run settles, no live member
// still routes around another live member — neither a residual
// failure-detector suspicion nor a residual flap-damping suppression.
// The damping half is vacuously true on fixed-detector runs (nothing is
// ever damped); the suspicion half bites on every recovery-enabled run.
func checkEventualReinclusion(c *swtest.SwitchedCluster, live []ids.ProcID) []string {
	var v []string
	for _, m := range live {
		sw := c.Members[m].Switch
		det := sw.Detector()
		for _, p := range live {
			if p == m {
				continue
			}
			if det != nil && det.Suspected(p) {
				v = append(v, fmt.Sprintf("re-inclusion: member %v still suspects live member %v at end of run", m, p))
			}
			if sw.Damped(p) {
				v = append(v, fmt.Sprintf("re-inclusion: member %v still damps live member %v at end of run", m, p))
			}
		}
	}
	return v
}

// MeasureRecovery runs the bounded-recovery experiment: a clean network
// (no drops), a switch round started at a random time, and a crash of a
// non-initiator member at a random point while the round is in flight.
// It returns the virtual time from the crash until every survivor has
// completed the switch (epoch advanced, not mid-round). The recovery
// layer's worst-case detection is SwitchTimeout (3×TokenInterval) plus
// the ring-position stagger, and the retried round completes in a few
// propagation delays, so the paper-facing bound asserted by the tests
// is 10×TokenInterval.
func MeasureRecovery(seed int64, n int, ti time.Duration) (time.Duration, error) {
	swCfg := switching.Config{
		Protocols:     pair(),
		TokenInterval: ti,
		Recovery: &switching.RecoveryConfig{
			Detector: fd.Config{Interval: ti / 2, Timeout: 2 * ti},
		},
	}
	c, err := swtest.NewSwitched(seed, simnet.Config{Nodes: n, PropDelay: 200 * time.Microsecond}, n, swCfg)
	if err != nil {
		return 0, fmt.Errorf("chaos: build cluster: %w", err)
	}
	victim := ids.ProcID(n - 1)
	rng := c.Sim.Rand()
	reqAt := 4*ti + time.Duration(rng.Int63n(int64(2*ti)))
	c.Sim.At(reqAt, func() { c.Members[0].Switch.RequestSwitch() })
	// Old-protocol traffic in flight around the request so the FLUSH
	// round has to drain.
	for i := 0; i < 6; i++ {
		i := i
		c.Sim.At(reqAt+time.Duration(i)*300*time.Microsecond, func() {
			cast(c, ids.ProcID(i%(n-1)), uint32(i), fmt.Sprintf("pre%d", i))
		})
	}

	// Crash the victim at a random delay after the initiator starts the
	// round. The window is sized to the round's own span (three ring
	// traversals), so across seeds the crash lands in every phase:
	// PREPARE in flight, SWITCH, holding FLUSH, or round already done.
	crashWindow := time.Duration(3*n+3) * 200 * time.Microsecond
	delay := time.Duration(rng.Int63n(int64(crashWindow)))
	var crashedAt time.Duration
	var watch func()
	watch = func() {
		if crashedAt != 0 {
			return
		}
		if c.Members[0].Switch.Switching() {
			c.Sim.After(delay, func() {
				crashedAt = c.Sim.Now()
				c.Net.Crash(victim)
			})
			return
		}
		c.Sim.After(ti/20, watch)
	}
	c.Sim.At(reqAt, watch)

	// Poll for the recovered state: every survivor at epoch 1 and out
	// of the round.
	var recoveredAt time.Duration
	var poll func()
	poll = func() {
		if recoveredAt != 0 {
			return
		}
		if crashedAt == 0 {
			c.Sim.After(ti/10, poll)
			return
		}
		for p := 0; p < n-1; p++ {
			sw := c.Members[p].Switch
			if sw.Epoch() != 1 || sw.Switching() {
				c.Sim.After(ti/10, poll)
				return
			}
		}
		recoveredAt = c.Sim.Now()
	}
	c.Sim.At(reqAt, poll)

	c.Run(reqAt + 200*ti)
	c.Stop()
	if crashedAt == 0 {
		return 0, fmt.Errorf("chaos: seed %d: switch round never started", seed)
	}
	if recoveredAt == 0 {
		return 0, fmt.Errorf("chaos: seed %d: survivors never recovered (wedged)", seed)
	}
	if recoveredAt < crashedAt {
		return 0, nil // round finished before the crash landed — nothing to recover
	}
	return recoveredAt - crashedAt, nil
}

// MeasureDetection runs the crash-detection-latency experiment behind
// the E20 stability study's equal-latency claim: a clean network, a
// long warmup of steady heartbeats (so the adaptive detector's
// inter-arrival window is full), then a crash-stop of a non-sequencer
// member at a seeded random time. It returns the virtual time from the
// crash to the first suspicion of the victim at any live member. With
// fixed true the fixed-timeout detector (RunConfig.FixedDetector's arm)
// runs alone; with fixed false it runs under the adaptive layering the
// chaos runner sweeps (adaptiveConfig). Both arms emit EvSuspect at the
// moment the victim is suspected (the graded path funnels through
// ForceSuspect), so one scan measures both.
func MeasureDetection(seed int64, n int, ti time.Duration, fixed bool) (time.Duration, error) {
	col := obs.NewCollector()
	rc := &switching.RecoveryConfig{Detector: fd.Config{Interval: ti}}
	if !fixed {
		rc.Adaptive = adaptiveConfig(ti)
	}
	swCfg := switching.Config{
		Protocols:     pair(),
		TokenInterval: ti,
		Recovery:      rc,
		Recorder:      col,
	}
	c, err := swtest.NewSwitched(seed, simnet.Config{Nodes: n, PropDelay: 200 * time.Microsecond}, n, swCfg)
	if err != nil {
		return 0, fmt.Errorf("chaos: build cluster: %w", err)
	}
	victim := ids.ProcID(n - 1)
	crashAt := 30*ti + time.Duration(c.Sim.Rand().Int63n(int64(4*ti)))
	c.Sim.At(crashAt, func() { c.Net.Crash(victim) })
	c.Run(crashAt + 40*ti)
	c.Stop()
	for _, e := range col.Events() {
		if e.Type == obs.EvSuspect && e.Peer == victim && e.At >= crashAt {
			return e.At - crashAt, nil
		}
	}
	return 0, fmt.Errorf("chaos: seed %d: crashed member never suspected", seed)
}
