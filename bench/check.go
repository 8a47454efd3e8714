package main

import (
	"fmt"
	"time"
)

// verdict is the outcome of checking one repeat: how many of its ops
// (deliveries) failed, and why.
type verdict struct {
	failed int
	notes  []string
}

func (v *verdict) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	v.failed += n
	if len(v.notes) < 8 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// checkTraffic verifies what the switching protocol promises the
// application, on everything one repeat recorded:
//
//   - every cast delivered exactly once at every member (after drain);
//   - one common total order across members;
//   - at every member, every delivery is made in the epoch its message
//     was sent in — so all of epoch e is delivered before any of e+1.
//
// A failed op is a delivery that is missing, duplicated, out of the
// common order, or on the wrong side of an epoch boundary.
func checkTraffic(r *recorder) verdict {
	var v verdict
	casts := len(r.due)
	v.fail(r.bad, "%d undecodable deliveries", r.bad)

	// One pass over the log with per-member state. rank[g] is message
	// g's position in member 0's delivery order, the reference every
	// other member's order is compared against; the log is in time order,
	// but no member's entries need precede member 0's, so ranks are
	// assigned first.
	members := len(r.count)
	rank := make([]int32, casts)
	n := int32(0)
	for i, g := range r.msg {
		if r.member[i] == 0 && int(g) < casts {
			rank[g] = n
			n++
		}
	}
	type state struct {
		seen                             []uint8
		marks                            []epochMark
		epoch                            uint64
		i                                int
		prev                             int32
		dup, unknown, descents, badEpoch int
	}
	st := make([]state, members)
	for m := range st {
		st[m] = state{seen: make([]uint8, casts), marks: r.marks[m], prev: -1}
	}
	for i, g := range r.msg {
		s := &st[r.member[i]]
		for len(s.marks) > 0 && s.marks[0].pos <= s.i {
			s.epoch, s.marks = s.marks[0].epoch, s.marks[1:]
		}
		s.i++
		switch {
		case int(g) >= casts:
			s.unknown++
			continue
		case s.seen[g] > 0:
			s.dup++
			continue
		}
		s.seen[g] = 1
		if r.castEpoch[g] != s.epoch {
			s.badEpoch++
		}
		if rank[g] < s.prev {
			s.descents++
		} else {
			s.prev = rank[g]
		}
	}
	for m, s := range st {
		missing := 0
		for _, n := range s.seen {
			if n == 0 {
				missing++
			}
		}
		v.fail(missing, "member %d: %d of %d casts never delivered", m, missing, casts)
		v.fail(s.dup, "member %d: %d duplicate deliveries", m, s.dup)
		v.fail(s.unknown, "member %d: %d deliveries of messages never cast", m, s.unknown)
		v.fail(s.descents, "member %d: %d deliveries out of member 0's order", m, s.descents)
		v.fail(s.badEpoch, "member %d: %d deliveries outside their message's epoch", m, s.badEpoch)
	}
	return v
}

// checkSwitching adds paper_switch's own checks: every requested switch
// completed, and at 5 senders — the low side of Figure 2's crossover —
// the sequencer epochs see lower median latency than the token epochs.
// These fail the run, not individual ops.
func checkSwitching(r *recorder, rp repeat) []string {
	var notes []string
	if len(rp.records) != rp.requested {
		notes = append(notes, fmt.Sprintf("%d of %d requested switches completed", len(rp.records), rp.requested))
	}
	seq := quantile(r.latencies(func(e uint64) bool { return e%2 == 0 }), 0.5)
	tok := quantile(r.latencies(func(e uint64) bool { return e%2 == 1 }), 0.5)
	if seq >= tok {
		notes = append(notes, fmt.Sprintf("sequencer-epoch p50 %v not below token-epoch p50 %v", seq, tok))
	}
	return notes
}

// recoveryBound is the paper-facing bound on crash recovery asserted by
// the chaos tests: ten token intervals.
const recoveryBound = 10 * recoveryInterval

func checkRecovery(d time.Duration) error {
	if d > recoveryBound {
		return fmt.Errorf("recovery took %v, bound %v", d, recoveryBound)
	}
	return nil
}
