// Package chaos is a seeded fault-injection harness for the switching
// protocol (E13 and its later fault tiers). A generator expands a seed
// into a deterministic schedule of faults — crashes, partitions, bursts
// and, per enabled tier, corruption, forgery and replay, flash crowds and
// gray failures — at random virtual times over an internal/simnet run.
// The runner replays it against the one switching.Hardened stack with
// traffic and switch requests, heals every fault, and checks one trace of
// the survivors' deliveries with the paper's own predicates:
// property.TotalOrder, property.Integrity and property.NoReplay. The
// invariants Table 1 has no counterpart for sit beside them: no panic
// (reported with the flight recorder's tail), post-heal liveness, the
// epoch boundary, convergence, bounded memory, no silent loss, bounded
// disruption and re-inclusion.
//
// Everything is deterministic per seed: the same seed generates the
// same schedule and the same simulation, which makes every sweep
// failure replayable.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/ids"
)

// Kind labels a fault event.
type Kind uint8

const (
	// KindCrash crash-stops the target member (never repaired).
	KindCrash Kind = iota + 1
	// KindPartition cuts the target member off from the rest of the
	// group from At until Until.
	KindPartition
	// KindBurst subjects the whole medium to message drops, duplicates
	// and reordering jitter from At until Until.
	KindBurst
	// KindCorrupt flips random payload bits on in-flight deliveries
	// from At until Until.
	KindCorrupt
	// KindTruncate cuts in-flight deliveries short at a random length
	// from At until Until.
	KindTruncate
	// KindGarbage injects a burst of random bytes at At, addressed to
	// Target and attributed to From.
	KindGarbage
	// KindForge injects a syntactically valid protocol frame sealed
	// under a key the attacker guessed (not the group session key) at
	// At, addressed to Target and attributed to From.
	KindForge
	// KindReplay re-injects a frame captured earlier off the wire — a
	// verbatim genuine transmission, possibly from a retired epoch.
	KindReplay
	// KindFlashCrowd multiplies the active sender population by Size
	// from At until Until — the ROADMAP's "sender count spikes 10x
	// mid-run" scenario, exercised against the overload layer.
	KindFlashCrowd
	// KindSlowNode stretches the target member's per-packet CPU charges
	// by Size× from At until Until — a gray failure: the member stays
	// up and correct but lags.
	KindSlowNode
	// KindLinkFault overlays drop/duplicate probabilities and a fixed
	// extra delay on the single directed link From→Target from At until
	// Until — an asymmetric gray link: traffic the other way is clean.
	KindLinkFault
	// KindFlap partitions the directed link From→Target every Period
	// (blocked for one period, open for the next) from At until Until —
	// the membership flapping that exercises suspicion damping.
	KindFlap
)

// String renders the kind.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindPartition:
		return "partition"
	case KindBurst:
		return "burst"
	case KindCorrupt:
		return "corrupt"
	case KindTruncate:
		return "truncate"
	case KindGarbage:
		return "garbage"
	case KindForge:
		return "forge"
	case KindReplay:
		return "replay"
	case KindFlashCrowd:
		return "flashcrowd"
	case KindSlowNode:
		return "slownode"
	case KindLinkFault:
		return "linkfault"
	case KindFlap:
		return "flap"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one fault in a schedule.
type Event struct {
	At   time.Duration
	Kind Kind
	// Target is the afflicted member (crash, partition).
	Target ids.ProcID
	// Until ends a partition or burst window.
	Until time.Duration
	// Drop/Dup/Jitter parameterize a burst.
	Drop   float64
	Dup    float64
	Jitter time.Duration
	// Corrupt/Truncate are the per-delivery probabilities of a
	// corruption or truncation window.
	Corrupt  float64
	Truncate float64
	// From/Size parameterize a garbage injection: Size random bytes
	// delivered to Target, attributed to From. For forgeries, Size is a
	// per-schedule uniqueness tag instead.
	From ids.ProcID
	Size int
	// Epoch is the switching epoch a forged frame claims.
	Epoch uint64
	// Index selects a captured frame for a replay, taken modulo the
	// number of frames captured by injection time (skipped when none).
	Index int
	// Period is a flap's half-cycle: the From→Target link is blocked
	// for one Period, open for the next, until the window closes.
	Period time.Duration
}

// SwitchReq schedules a protocol-switch request.
type SwitchReq struct {
	At time.Duration
	By ids.ProcID
}

// Send schedules one background application multicast.
type Send struct {
	At   time.Duration
	From ids.ProcID
}

// Schedule is a deterministic fault plan for one run.
type Schedule struct {
	Seed     int64
	N        int
	Horizon  time.Duration
	Events   []Event
	Switches []SwitchReq
	Traffic  []Send
}

// HasForgery reports whether the schedule contains any authentication
// fault (forged frames or wire replays). The runner arms the
// adversary's replay tap exactly when this is true.
func (s Schedule) HasForgery() bool {
	for _, e := range s.Events {
		switch e.Kind {
		case KindForge, KindReplay:
			return true
		}
	}
	return false
}

// HasFlashCrowd reports whether the schedule contains a flash-crowd
// sender spike. The runner samples egress queue depths into the trace
// exactly when this is true.
func (s Schedule) HasFlashCrowd() bool {
	for _, e := range s.Events {
		if e.Kind == KindFlashCrowd {
			return true
		}
	}
	return false
}

// Kinds returns the distinct fault kinds present, in order.
func (s Schedule) Kinds() []Kind {
	seen := map[Kind]bool{}
	var out []Kind
	for _, e := range s.Events {
		if !seen[e.Kind] {
			seen[e.Kind] = true
			out = append(out, e.Kind)
		}
	}
	return out
}

// GenConfig selects the fault tiers the schedule generator draws from.
// The base tier (crashes, partitions, bursts) is always on. Each other
// tier's draws come after every draw of the tiers listed before it, so
// turning a tier on only appends to the schedules the other tiers
// would generate.
type GenConfig struct {
	// Corruption adds the adversarial-input fault classes: bit
	// corruption, truncation and spoofed garbage.
	Corruption bool
	// Forgery adds the authentication fault classes: forged frames and
	// wire replays.
	Forgery bool
	// FlashCrowd adds the flash-crowd fault class: a sender spike.
	FlashCrowd bool
	// GrayFailure adds the gray fault classes: slow nodes, lossy
	// asymmetric links and flapping links.
	GrayFailure bool
}

// The generator's fixed shape.
const (
	// groupSize is the group size: 4, the minimum at which one member
	// can crash and another partition while both sequencer members stay
	// up.
	groupSize = 4
	// horizon is the window in which faults, traffic and switch requests
	// are placed. All partitions and bursts heal before it.
	horizon = 400 * time.Millisecond
	// messages is how many background multicasts a schedule carries.
	messages = 14
)

// The independent probability of each fault class appearing in a
// schedule whose tier is on. A schedule that rolls none of the base
// classes is given a crash so every schedule exercises recovery.
const (
	crashProb     = 0.6
	partitionProb = 0.5
	burstProb     = 0.5

	corruptProb  = 0.5
	truncateProb = 0.4
	garbageProb  = 0.4

	forgeProb  = 0.5
	replayProb = 0.5

	flashCrowdProb = 0.6

	slowNodeProb  = 0.5
	linkFaultProb = 0.5
	flapProb      = 0.6
)

// Generate expands a seed into a deterministic fault schedule. Faults
// only target members ≥ 2: members 0 and 1 act as the sequencers of the
// two sub-protocols, and killing a sub-protocol's own coordinator tests
// that protocol's (absent) fault tolerance, not the switching layer's.
// The error is always nil.
func Generate(seed int64, cfg GenConfig) (Schedule, error) {
	rng := rand.New(rand.NewSource(seed))
	h := horizon
	s := Schedule{Seed: seed, N: groupSize, Horizon: h}

	window := func(lo, hi float64) (time.Duration, time.Duration) {
		a := time.Duration((lo + rng.Float64()*(hi-lo-0.1)) * float64(h))
		b := a + time.Duration((0.1+rng.Float64()*0.3)*float64(h))
		if b > h {
			b = h
		}
		return a, b
	}
	victim := func() ids.ProcID { return ids.ProcID(2 + rng.Intn(groupSize-2)) }

	if rng.Float64() < crashProb {
		at, _ := window(0.2, 0.8)
		s.Events = append(s.Events, Event{At: at, Kind: KindCrash, Target: victim()})
	}
	if rng.Float64() < partitionProb {
		at, until := window(0.1, 0.8)
		s.Events = append(s.Events, Event{At: at, Kind: KindPartition, Target: victim(), Until: until})
	}
	if rng.Float64() < burstProb {
		at, until := window(0.1, 0.8)
		s.Events = append(s.Events, Event{
			At: at, Kind: KindBurst, Until: until,
			Drop:   0.05 + 0.3*rng.Float64(),
			Dup:    0.2 * rng.Float64(),
			Jitter: time.Duration(rng.Intn(2000)) * time.Microsecond,
		})
	}
	if len(s.Events) == 0 {
		at, _ := window(0.2, 0.8)
		s.Events = append(s.Events, Event{At: at, Kind: KindCrash, Target: victim()})
	}
	sort.Slice(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })

	// One or two switch requests from the never-faulted members.
	for i := 0; i < 1+rng.Intn(2); i++ {
		s.Switches = append(s.Switches, SwitchReq{
			At: time.Duration((0.1 + 0.7*rng.Float64()) * float64(h)),
			By: ids.ProcID(rng.Intn(2)),
		})
	}
	sort.Slice(s.Switches, func(i, j int) bool { return s.Switches[i].At < s.Switches[j].At })

	for i := 0; i < messages; i++ {
		s.Traffic = append(s.Traffic, Send{
			At:   time.Duration(rng.Float64() * float64(h)),
			From: ids.ProcID(rng.Intn(groupSize)),
		})
	}
	sort.Slice(s.Traffic, func(i, j int) bool { return s.Traffic[i].At < s.Traffic[j].At })

	// Adversarial-input faults. Their draws come after every base-tier
	// draw (and are skipped entirely with the tier off), so a base
	// config consumes exactly the base tier's random stream and expands
	// to a byte-identical schedule.
	var corr []Event
	if cfg.Corruption && rng.Float64() < corruptProb {
		at, until := window(0.1, 0.8)
		corr = append(corr, Event{
			At: at, Kind: KindCorrupt, Until: until,
			Corrupt: 0.05 + 0.15*rng.Float64(),
		})
	}
	if cfg.Corruption && rng.Float64() < truncateProb {
		at, until := window(0.1, 0.8)
		corr = append(corr, Event{
			At: at, Kind: KindTruncate, Until: until,
			Truncate: 0.03 + 0.1*rng.Float64(),
		})
	}
	if cfg.Corruption && rng.Float64() < garbageProb {
		// A small burst of garbage packets, each fully determined here
		// (spoofed source, target, size) so the replay needs no draws.
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			from := rng.Intn(groupSize)
			corr = append(corr, Event{
				At:     time.Duration((0.1 + 0.8*rng.Float64()) * float64(h)),
				Kind:   KindGarbage,
				From:   ids.ProcID(from),
				Target: ids.ProcID((from + 1 + rng.Intn(groupSize-1)) % groupSize),
				Size:   1 + rng.Intn(64),
			})
		}
		if rng.Float64() < 0.25 {
			// Occasionally a dense flood from one spoofed source —
			// enough packets to cross the runner's quarantine threshold,
			// so the sweep exercises the suspect-instead-of-wedge
			// escalation (the falsely accused live peer is restored by
			// its next heartbeat).
			from := rng.Intn(groupSize)
			target := ids.ProcID((from + 1 + rng.Intn(groupSize-1)) % groupSize)
			start := time.Duration((0.1 + 0.6*rng.Float64()) * float64(h))
			for i := 0; i < quarantineThreshold+5; i++ {
				corr = append(corr, Event{
					At:     start + time.Duration(i)*50*time.Microsecond,
					Kind:   KindGarbage,
					From:   ids.ProcID(from),
					Target: target,
					Size:   1 + rng.Intn(64),
				})
			}
		}
	}
	if len(corr) > 0 {
		s.Events = append(s.Events, corr...)
		sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	}

	// Authentication faults. Their draws come after every base-tier and
	// corruption draw (and are skipped entirely with the tier off), so
	// corruption-only and base configs consume exactly their own
	// random streams and expand to byte-identical schedules.
	var forg []Event
	if cfg.Forgery && rng.Float64() < forgeProb {
		// A handful of forged frames, each fully determined here
		// (spoofed source, target, claimed epoch, uniqueness tag) so the
		// replay needs no draws.
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			from := rng.Intn(groupSize)
			forg = append(forg, Event{
				At:     time.Duration((0.1 + 0.8*rng.Float64()) * float64(h)),
				Kind:   KindForge,
				From:   ids.ProcID(from),
				Target: ids.ProcID((from + 1 + rng.Intn(groupSize-1)) % groupSize),
				Epoch:  uint64(rng.Intn(3)),
				Size:   i,
			})
		}
		if rng.Float64() < 0.25 {
			// Occasionally a dense forgery flood from one spoofed source
			// — enough frames to cross the quarantine threshold, so the
			// sweep exercises the suspect-instead-of-wedge escalation on
			// the authentication path too.
			from := rng.Intn(groupSize)
			target := ids.ProcID((from + 1 + rng.Intn(groupSize-1)) % groupSize)
			epoch := uint64(rng.Intn(3))
			start := time.Duration((0.1 + 0.6*rng.Float64()) * float64(h))
			for i := 0; i < quarantineThreshold+5; i++ {
				forg = append(forg, Event{
					At:     start + time.Duration(i)*50*time.Microsecond,
					Kind:   KindForge,
					From:   ids.ProcID(from),
					Target: target,
					Epoch:  epoch,
					Size:   100 + i,
				})
			}
		}
	}
	if cfg.Forgery && rng.Float64() < replayProb {
		// Wire replays land in the later part of the horizon, after
		// traffic has been captured — and often after a switch round has
		// retired the epoch the captured frame was sealed in.
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			_ = i
			forg = append(forg, Event{
				At:    time.Duration((0.3 + 0.65*rng.Float64()) * float64(h)),
				Kind:  KindReplay,
				Index: rng.Intn(1 << 16),
			})
		}
	}
	if len(forg) > 0 {
		s.Events = append(s.Events, forg...)
		sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	}

	// Flash-crowd faults. Their draws come after every base-tier,
	// corruption and forgery draw (and are skipped entirely with the
	// tier off), so all earlier tiers consume exactly their own
	// random streams and expand to byte-identical schedules.
	if cfg.FlashCrowd && rng.Float64() < flashCrowdProb {
		at, until := window(0.15, 0.6)
		s.Events = append(s.Events, Event{
			At: at, Kind: KindFlashCrowd, Until: until,
			// Size is the sender multiplier: 4x up to the ROADMAP's 10x.
			Size: 4 + rng.Intn(7),
		})
		sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	}

	// Gray faults. Their draws come after every base-tier, corruption,
	// forgery and flash-crowd draw (and are skipped entirely with the
	// tier off), so all earlier tiers consume exactly their own
	// random streams and expand to byte-identical schedules. Every gray
	// window ends by 0.85×horizon: the faulted member must resume clean
	// heartbeats — and its flap-damping penalty must decay past reuse —
	// well before the post-heal probes, or the eventual-re-inclusion
	// invariant would be testing the schedule instead of the detector.
	var gray []Event
	if cfg.GrayFailure && rng.Float64() < slowNodeProb {
		at, until := window(0.1, 0.6)
		gray = append(gray, Event{
			At: at, Kind: KindSlowNode, Target: victim(), Until: until,
			// Size is the CPU stretch factor: modest, so the member lags
			// without its queue diverging (a diverged queue is a crash in
			// slow motion, not a gray failure).
			Size: 2 + rng.Intn(5),
		})
	}
	if cfg.GrayFailure && rng.Float64() < linkFaultProb {
		at, until := window(0.1, 0.6)
		from := victim()
		gray = append(gray, Event{
			At: at, Kind: KindLinkFault, Until: until,
			// The lossy direction is always out of a non-sequencer, so
			// the member that ends up suspected (and possibly damped) is
			// never a sub-protocol coordinator.
			From:   from,
			Target: ids.ProcID((int(from) + 1 + rng.Intn(groupSize-1)) % groupSize),
			Drop:   0.1 + 0.4*rng.Float64(),
			Dup:    0.2 * rng.Float64(),
			Jitter: time.Duration(rng.Intn(3000)) * time.Microsecond,
		})
	}
	if cfg.GrayFailure && rng.Float64() < flapProb {
		// Flap windows are drawn longer than the generic window helper
		// gives: a flap only produces suspect→restore cycles when each
		// blocked half-cycle outlasts the failure-detector timeout, and
		// damping needs several such cycles to charge up.
		at := time.Duration((0.05 + 0.2*rng.Float64()) * float64(h))
		until := at + time.Duration((0.3+0.3*rng.Float64())*float64(h))
		if max := time.Duration(0.85 * float64(h)); until > max {
			until = max
		}
		from := victim()
		gray = append(gray, Event{
			At: at, Kind: KindFlap, Until: until,
			From:   from,
			Target: ids.ProcID((int(from) + 1 + rng.Intn(groupSize-1)) % groupSize),
			// Half-cycle comfortably past the detector timeout (5× the
			// 5ms heartbeat interval the runner configures).
			Period: time.Duration(30+rng.Intn(31)) * time.Millisecond,
		})
	}
	if len(gray) > 0 {
		s.Events = append(s.Events, gray...)
		sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	}
	return s, nil
}
