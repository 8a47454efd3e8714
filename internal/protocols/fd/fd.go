// Package fd implements a heartbeat failure detector — the substrate
// that lets the view-change switching mechanism of §8 evict crashed
// members at run time. (The paper's token-ring SP assumes crash-free
// members: a single crash-stop failure silently wedges its token ring,
// which the switching tests demonstrate; the view switch with this
// detector reconfigures around the crash instead.)
//
// Each member multicasts a heartbeat every Interval on the detector's
// private channel; a member not heard from for Timeout becomes
// *suspected*. The detector is eventually perfect in this crash-stop
// model without network partitions: every crashed member is eventually
// suspected, and a live member is only mis-suspected while messages are
// delayed beyond Timeout (suspicion is withdrawn when a heartbeat
// arrives).
package fd

import (
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/proto"
)

// Config tunes the detector.
type Config struct {
	// Interval between heartbeats. Defaults to 20ms.
	Interval time.Duration
	// Timeout without a heartbeat before suspecting a member.
	// Defaults to 5× Interval.
	Timeout time.Duration
	// OnSuspect fires (once per transition) when a member becomes
	// suspected.
	OnSuspect func(p ids.ProcID)
	// OnRestore fires when a suspected member is heard from again.
	OnRestore func(p ids.ProcID)
	// OnHeartbeat fires on every heartbeat received — the feed for
	// adaptive inter-arrival detectors layered above this one. It runs
	// after the suspicion bookkeeping (so OnRestore precedes it for a
	// heartbeat that clears a suspicion).
	OnHeartbeat func(p ids.ProcID)
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 20 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * c.Interval
	}
	return c
}

// Detector is one member's failure-detector endpoint. It is not a
// protocol layer: it sits on its own multiplex channel beside the
// protocol stacks and only consumes heartbeats.
type Detector struct {
	cfg  Config
	env  proto.Env
	down proto.Down

	// lastSeen and suspected are indexed by ProcID and sized at Init to
	// cover every member.
	lastSeen  []time.Duration
	suspected []bool

	timer   proto.Timer
	stopped bool
}

// New creates a detector.
func New(cfg Config) *Detector {
	return &Detector{cfg: cfg.withDefaults()}
}

// Init wires the detector to its channel and starts heartbeating.
func (d *Detector) Init(env proto.Env, down proto.Down) error {
	if env == nil || down == nil {
		return fmt.Errorf("fd: nil wiring")
	}
	d.env, d.down = env, down
	members := env.Members()
	size := 0
	for _, p := range members {
		size = max(size, int(p)+1)
	}
	d.lastSeen, d.suspected = make([]time.Duration, size), make([]bool, size)
	// Everyone starts un-suspected with a fresh grace period.
	for _, p := range members {
		d.lastSeen[p] = env.Now()
	}
	d.timer = env.After(d.cfg.Interval, d.tick)
	return nil
}

// tick is the detector's one timer: every Interval it beats, then
// checks, then re-arms.
func (d *Detector) tick() {
	if d.stopped {
		return
	}
	d.beat()
	if d.stopped {
		return
	}
	d.check()
	if d.stopped {
		return
	}
	d.timer.Reset(d.cfg.Interval)
}

// Stop halts heartbeating and checking.
func (d *Detector) Stop() {
	d.stopped = true
	if d.timer != nil {
		d.timer.Stop()
	}
}

// Recv consumes a heartbeat; wire the detector's multiplex channel
// here.
func (d *Detector) Recv(src ids.ProcID, _ []byte) {
	if d.stopped {
		return
	}
	if d.member(src) {
		d.lastSeen[src] = d.env.Now()
		if d.suspected[src] {
			d.suspected[src] = false
			if d.cfg.OnRestore != nil {
				d.cfg.OnRestore(src)
			}
		}
	}
	if d.cfg.OnHeartbeat != nil {
		d.cfg.OnHeartbeat(src)
	}
}

// member reports whether p has an entry in the detector's tables.
func (d *Detector) member(p ids.ProcID) bool { return uint(p) < uint(len(d.suspected)) }

// Suspected reports whether p is currently suspected.
func (d *Detector) Suspected(p ids.ProcID) bool { return d.member(p) && d.suspected[p] }

// ForceSuspect marks p suspected immediately, without waiting for its
// heartbeats to lapse — the hook the switching layer's quarantine uses
// when a peer's traffic is persistently malformed. Self cannot be
// suspected, and neither can a non-member. The suspicion is withdrawn
// like any other when a heartbeat arrives, so a transiently-noisy link
// does not evict a member forever; its timestamp is rewound so a quiet
// peer lapses again on the next check rather than re-earning the full
// grace period.
func (d *Detector) ForceSuspect(p ids.ProcID) {
	if d.stopped || d.env == nil || p == d.env.Self() || !d.member(p) || d.suspected[p] {
		return
	}
	d.suspected[p] = true
	d.lastSeen[p] = d.env.Now() - d.cfg.Timeout
	if d.cfg.OnSuspect != nil {
		d.cfg.OnSuspect(p)
	}
}

// Suspects returns the currently suspected members, in ring order.
func (d *Detector) Suspects() []ids.ProcID {
	var out []ids.ProcID
	for _, p := range d.env.Members() {
		if d.suspected[p] {
			out = append(out, p)
		}
	}
	return out
}

// Live returns the members not currently suspected, in ring order.
func (d *Detector) Live() []ids.ProcID {
	var out []ids.ProcID
	for _, p := range d.env.Members() {
		if !d.suspected[p] {
			out = append(out, p)
		}
	}
	return out
}

// heartbeat is every heartbeat's payload. Shared: a Down only borrows
// what it is handed, and copies what it keeps.
var heartbeat = []byte{1}

// beat multicasts one heartbeat.
func (d *Detector) beat() {
	_ = d.down.Cast(heartbeat)
}

// check suspects members whose heartbeats stopped.
func (d *Detector) check() {
	now := d.env.Now()
	for _, p := range d.env.Members() {
		if p == d.env.Self() || d.suspected[p] {
			continue
		}
		if now-d.lastSeen[p] > d.cfg.Timeout {
			d.suspected[p] = true
			if d.cfg.OnSuspect != nil {
				d.cfg.OnSuspect(p)
			}
		}
	}
}
