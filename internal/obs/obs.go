// Package obs is the deterministic observability layer: typed
// structured events emitted by the switching core, its recovery
// extensions, and the simulated network, plus the recorders that
// consume them (trace collectors, a bounded flight recorder, and a
// per-member metrics registry).
//
// Everything in this package is driven by the discrete-event
// simulator's virtual clock, so for a fixed seed the event stream is a
// pure function of the configuration: recording an execution twice —
// or running a sweep on any number of workers — produces byte-identical
// traces. Recorders must therefore never consult wall-clock time or
// any other non-deterministic source.
//
// The default recorder is Nop, which is allocation-free: Event is a
// plain value struct with no pointer fields, so constructing one and
// passing it to Nop.Record costs a few register moves and no heap
// traffic. Instrumented hot paths additionally guard high-volume
// trace-only events behind Enabled().
package obs

import (
	"fmt"
	"time"

	"repro/internal/ids"
)

// NoProc marks an event that is not attributed to a single member
// (network-wide faults such as a heal).
const NoProc ids.ProcID = -1

// NoPeer marks an event without a peer member.
const NoPeer ids.ProcID = -1

// EventType enumerates the structured event vocabulary.
type EventType uint8

const (
	// EvTokenPass: Proc forwarded the token to Peer (Mode, Epoch, Gen
	// from the token; Peer == Proc for a singleton self-loop).
	EvTokenPass EventType = iota + 1
	// EvTokenHold: Proc started holding a token for the idle interval.
	EvTokenHold
	// EvTokenRegen: Proc regenerated a presumed-lost token; Gen is the
	// new generation, Epoch the member's delivery epoch at that moment.
	EvTokenRegen
	// EvPhase: Proc entered a switch phase — it redirected its sends to
	// Epoch+1 on seeing the round's token (Mode PREPARE on the normal
	// path, SWITCH on a recovery late-join).
	EvPhase
	// EvSwitchStart: Proc became the initiator of a switch closing
	// Epoch.
	EvSwitchStart
	// EvSwitchComplete: the FLUSH token returned to the initiator Proc;
	// Args[0] is the round's end-to-end duration in nanoseconds.
	EvSwitchComplete
	// EvSwitchAbort: Proc abandoned or re-ran a switch round (token
	// lost, or the round was superseded by a newer lineage).
	EvSwitchAbort
	// EvEpochAdvance: Proc completed a switch locally and moved to
	// delivery Epoch.
	EvEpochAdvance
	// EvEpochForced: Proc adopted delivery Epoch from a token after
	// missing the switch round itself (rejoin fast-forward).
	EvEpochForced
	// EvBuffered: Proc buffered a future-epoch message from Peer.
	EvBuffered
	// EvStaleDrop: Proc dropped a message from Peer for an
	// already-closed Epoch.
	EvStaleDrop
	// EvWedgeTimeout: Proc's wedge detector expired (token presumed
	// lost); Args[0] is the consecutive-strike count.
	EvWedgeTimeout
	// EvSuspect: Proc's failure detector suspected Peer.
	EvSuspect
	// EvCrash: the network crash-stopped Proc.
	EvCrash
	// EvPartition: the network cut Proc off from Args[0] peers.
	EvPartition
	// EvHeal: the network removed every partition (Proc == NoProc).
	EvHeal
	// EvFaultSet: the per-receiver fault knobs changed; Args are
	// [drop per-mille, dup per-mille, jitter ns] (Proc == NoProc).
	EvFaultSet
	// EvDrop: the network dropped a packet to Proc from Peer; Args[0]
	// is 0 for a block/crash drop, 1 for random loss.
	EvDrop
	// EvDelay: the network jittered a packet to Proc from Peer by
	// Args[0] nanoseconds.
	EvDelay
	// EvCorruptSet: the per-receiver corruption knobs changed; Args are
	// [corrupt per-mille, truncate per-mille] (Proc == NoProc).
	EvCorruptSet
	// EvCorrupt: the network flipped Args[0] bits in a packet to Proc
	// from Peer.
	EvCorrupt
	// EvTruncate: the network truncated a packet to Proc from Peer,
	// keeping Args[0] of Args[1] bytes.
	EvTruncate
	// EvGarbage: the network injected Args[0] random bytes to Proc,
	// forged to look like they came from Peer.
	EvGarbage
	// EvMalformedDrop: Proc's defensive ingress rejected a message
	// apparently from Peer without mutating state; Args[0] is a
	// MalformedReason code.
	EvMalformedDrop
	// EvQuarantine: Proc's malformed-message count for Peer crossed the
	// quarantine threshold (Args[0]) and raised a suspicion instead of
	// wedging.
	EvQuarantine
	// EvAuthFail: Proc's authenticated ingress rejected a frame
	// apparently from Peer; Args[0] is an AuthFailReason code, Epoch the
	// frame's claimed epoch where one parsed (zero otherwise).
	EvAuthFail
	// EvForged: the network injected a forged frame of Args[0] bytes to
	// Proc, claiming to come from Peer.
	EvForged
	// EvReplayed: the network re-delivered a previously captured frame
	// of Args[0] bytes to Proc, originally from Peer.
	EvReplayed
	// EvShed: Proc's overload layer dropped a message at a hard queue
	// limit; Args[0] is a ShedReason code (ingress frame from Peer, or
	// an egress application send with Peer == NoPeer), Args[1] the queue
	// depth at the drop.
	EvShed
	// EvBackpressureOn: Proc's egress queue depth (Args[0]) crossed the
	// high watermark and local senders were asked to pause.
	EvBackpressureOn
	// EvBackpressureOff: Proc's egress queue depth (Args[0]) fell back
	// to the low watermark and local senders were asked to resume.
	EvBackpressureOff
	// EvRetrySend: Proc's overload layer scheduled retry attempt
	// Args[0] of a rejected application send, Args[1] nanoseconds out.
	EvRetrySend
	// EvQueueDepth: the network sampled Proc's egress queue at depth
	// Args[0] (periodic gauge; trace-only).
	EvQueueDepth
	// EvSenderSpike: the network's flash-crowd knob changed to an
	// Args[0]× sender multiplier (Proc == NoProc).
	EvSenderSpike
	// EvSuspectCleared: Proc's failure detector cleared its suspicion
	// of Peer (a heartbeat arrived from a suspected member) — the
	// falling edge paired with EvSuspect, so suspect gauges can drop.
	EvSuspectCleared
	// EvSuspicionRaise: Proc's adaptive detector crossed its graded
	// suspicion threshold for Peer; Args[0] is the integer-scaled
	// suspicion level (elapsed/mean × SuspicionScale).
	EvSuspicionRaise
	// EvSuspicionClear: Proc's adaptive detector cleared its graded
	// suspicion of Peer (traffic resumed before the peer was written
	// off).
	EvSuspicionClear
	// EvFlapPenalty: Proc charged Peer a flap-damping penalty for a
	// suspicion that cleared and re-fired; Args[0] is the accumulated
	// penalty after the charge, Args[1] the flap count.
	EvFlapPenalty
	// EvDegradedSkip: Proc routed the token around Peer because Peer is
	// damped (degraded mode) — skipped in ring rotation without a
	// token regeneration.
	EvDegradedSkip
	// EvReinclude: Proc's flap-damping penalty for Peer decayed below
	// the reuse threshold and Peer rejoined Proc's ring rotation;
	// Args[0] is the decayed penalty at re-inclusion.
	EvReinclude
	// EvLinkFaultSet: the per-directed-link fault overrides changed for
	// the link Peer→Proc; Args are [drop per-mille, dup per-mille,
	// extra delay ns] (all zero clears the override).
	EvLinkFaultSet
	// EvSlowNodeSet: the network stretched Proc's send/processing CPU
	// charges by an Args[0]× factor (1 restores full speed).
	EvSlowNodeSet
	// EvFlapSet: the network started (or, with Args[0] == 0, stopped)
	// flapping the link Peer→Proc: the link partitions and heals every
	// Args[0] ns until virtual time Args[1].
	EvFlapSet

	eventTypeCount
)

// eventNames are the stable wire names used by the JSONL exporter.
var eventNames = [eventTypeCount]string{
	EvTokenPass:       "token_pass",
	EvTokenHold:       "token_hold",
	EvTokenRegen:      "token_regen",
	EvPhase:           "phase",
	EvSwitchStart:     "switch_start",
	EvSwitchComplete:  "switch_complete",
	EvSwitchAbort:     "switch_abort",
	EvEpochAdvance:    "epoch_advance",
	EvEpochForced:     "epoch_forced",
	EvBuffered:        "buffered",
	EvStaleDrop:       "stale_drop",
	EvWedgeTimeout:    "wedge_timeout",
	EvSuspect:         "suspect",
	EvCrash:           "crash",
	EvPartition:       "partition",
	EvHeal:            "heal",
	EvFaultSet:        "fault_set",
	EvDrop:            "drop",
	EvDelay:           "delay",
	EvCorruptSet:      "corrupt_set",
	EvCorrupt:         "corrupt",
	EvTruncate:        "truncate",
	EvGarbage:         "garbage",
	EvMalformedDrop:   "malformed_drop",
	EvQuarantine:      "quarantine",
	EvAuthFail:        "auth_fail",
	EvForged:          "forged",
	EvReplayed:        "replayed",
	EvShed:            "shed",
	EvBackpressureOn:  "backpressure_on",
	EvBackpressureOff: "backpressure_off",
	EvRetrySend:       "retry_send",
	EvQueueDepth:      "queue_depth",
	EvSenderSpike:     "sender_spike",
	EvSuspectCleared:  "suspect_cleared",
	EvSuspicionRaise:  "suspicion_raise",
	EvSuspicionClear:  "suspicion_clear",
	EvFlapPenalty:     "flap_penalty",
	EvDegradedSkip:    "degraded_skip",
	EvReinclude:       "reinclude",
	EvLinkFaultSet:    "link_fault_set",
	EvSlowNodeSet:     "slow_node_set",
	EvFlapSet:         "flap_set",
}

// String renders the type's stable wire name.
func (t EventType) String() string {
	if int(t) < len(eventNames) && eventNames[t] != "" {
		return eventNames[t]
	}
	return fmt.Sprintf("EventType(%d)", uint8(t))
}

// ModeName renders a token mode byte (mirrors switching.Mode without
// importing it — switching imports obs). Zero means "no mode".
func ModeName(m uint8) string {
	switch m {
	case 1:
		return "NORMAL"
	case 2:
		return "PREPARE"
	case 3:
		return "SWITCH"
	case 4:
		return "FLUSH"
	default:
		return ""
	}
}

// modeByName is the inverse of ModeName (JSONL decoding).
func modeByName(s string) (uint8, bool) {
	switch s {
	case "":
		return 0, true
	case "NORMAL":
		return 1, true
	case "PREPARE":
		return 2, true
	case "SWITCH":
		return 3, true
	case "FLUSH":
		return 4, true
	}
	return 0, false
}

// Event is one structured observation. It is a pure value: no pointer
// fields, so events can be recorded, copied, and ring-buffered without
// allocating, and two traces compare with ==.
type Event struct {
	// At is the virtual time of the observation.
	At time.Duration
	// Run tags the sweep run the event belongs to; it is zero at
	// recording time and set when per-run traces are merged.
	Run int
	// Type selects the vocabulary entry; the remaining fields'
	// per-type meaning is documented on the Ev* constants.
	Type EventType
	// Mode is the token mode (1..4 as switching.Mode; 0 when absent).
	Mode uint8
	// Proc is the member the event happened at (NoProc for
	// network-wide events).
	Proc ids.ProcID
	// Peer is the other member involved (NoPeer when absent).
	Peer ids.ProcID
	// Epoch and Gen carry the protocol epoch and token generation
	// where meaningful.
	Epoch, Gen uint64
	// Args holds type-specific numeric payload (durations in ns,
	// counts); unused slots are zero.
	Args [3]int64
}

// Constructors — one per event type, so call sites cannot mix up the
// overloaded fields.

// TokenPass records a token forwarded from proc to peer.
func TokenPass(at time.Duration, proc, peer ids.ProcID, mode uint8, epoch, gen uint64) Event {
	return Event{At: at, Type: EvTokenPass, Proc: proc, Peer: peer, Mode: mode, Epoch: epoch, Gen: gen}
}

// TokenHold records the start of an idle token hold at proc.
func TokenHold(at time.Duration, proc ids.ProcID, mode uint8, epoch, gen uint64) Event {
	return Event{At: at, Type: EvTokenHold, Proc: proc, Peer: NoPeer, Mode: mode, Epoch: epoch, Gen: gen}
}

// TokenRegen records a token regeneration at proc.
func TokenRegen(at time.Duration, proc ids.ProcID, epoch, gen uint64) Event {
	return Event{At: at, Type: EvTokenRegen, Proc: proc, Peer: NoPeer, Epoch: epoch, Gen: gen}
}

// Phase records proc entering a switch phase (send redirection).
func Phase(at time.Duration, proc ids.ProcID, mode uint8, epoch, gen uint64) Event {
	return Event{At: at, Type: EvPhase, Proc: proc, Peer: NoPeer, Mode: mode, Epoch: epoch, Gen: gen}
}

// SwitchStart records proc becoming the initiator of a switch.
func SwitchStart(at time.Duration, proc ids.ProcID, epoch, gen uint64) Event {
	return Event{At: at, Type: EvSwitchStart, Proc: proc, Peer: NoPeer, Epoch: epoch, Gen: gen}
}

// SwitchComplete records the FLUSH token returning to initiator proc.
func SwitchComplete(at time.Duration, proc ids.ProcID, epoch, gen uint64, took time.Duration) Event {
	return Event{At: at, Type: EvSwitchComplete, Proc: proc, Peer: NoPeer, Epoch: epoch, Gen: gen,
		Args: [3]int64{int64(took)}}
}

// SwitchAbort records proc abandoning or re-running a switch round;
// gen is the token lineage that supersedes the aborted round.
func SwitchAbort(at time.Duration, proc ids.ProcID, epoch, gen uint64) Event {
	return Event{At: at, Type: EvSwitchAbort, Proc: proc, Peer: NoPeer, Epoch: epoch, Gen: gen}
}

// EpochAdvance records proc completing a switch into delivery epoch.
func EpochAdvance(at time.Duration, proc ids.ProcID, epoch uint64) Event {
	return Event{At: at, Type: EvEpochAdvance, Proc: proc, Peer: NoPeer, Epoch: epoch}
}

// EpochForced records proc fast-forwarding to epoch after missing the
// switch round.
func EpochForced(at time.Duration, proc ids.ProcID, epoch uint64) Event {
	return Event{At: at, Type: EvEpochForced, Proc: proc, Peer: NoPeer, Epoch: epoch}
}

// Buffered records proc buffering a future-epoch message from peer.
func Buffered(at time.Duration, proc, peer ids.ProcID, epoch uint64) Event {
	return Event{At: at, Type: EvBuffered, Proc: proc, Peer: peer, Epoch: epoch}
}

// StaleDrop records proc dropping a closed-epoch message from peer.
func StaleDrop(at time.Duration, proc, peer ids.ProcID, epoch uint64) Event {
	return Event{At: at, Type: EvStaleDrop, Proc: proc, Peer: peer, Epoch: epoch}
}

// WedgeTimeout records proc's wedge detector expiring at the given
// consecutive-strike count.
func WedgeTimeout(at time.Duration, proc ids.ProcID, strikes int) Event {
	return Event{At: at, Type: EvWedgeTimeout, Proc: proc, Peer: NoPeer, Args: [3]int64{int64(strikes)}}
}

// Suspect records proc's failure detector suspecting peer.
func Suspect(at time.Duration, proc, peer ids.ProcID) Event {
	return Event{At: at, Type: EvSuspect, Proc: proc, Peer: peer}
}

// Crash records the network crash-stopping proc.
func Crash(at time.Duration, proc ids.ProcID) Event {
	return Event{At: at, Type: EvCrash, Proc: proc, Peer: NoPeer}
}

// Partition records proc being cut off from peers other members.
func Partition(at time.Duration, proc ids.ProcID, peers int) Event {
	return Event{At: at, Type: EvPartition, Proc: proc, Peer: NoPeer, Args: [3]int64{int64(peers)}}
}

// Heal records all partitions being removed.
func Heal(at time.Duration) Event {
	return Event{At: at, Type: EvHeal, Proc: NoProc, Peer: NoPeer}
}

// FaultSet records the per-receiver fault knobs changing.
func FaultSet(at time.Duration, dropPermille, dupPermille int64, jitter time.Duration) Event {
	return Event{At: at, Type: EvFaultSet, Proc: NoProc, Peer: NoPeer,
		Args: [3]int64{dropPermille, dupPermille, int64(jitter)}}
}

// Drop reason codes (Args[0] of EvDrop).
const (
	// DropBlocked: the packet crossed a partition cut or involved a
	// crashed node.
	DropBlocked = 0
	// DropRandom: the packet fell to the configured loss probability.
	DropRandom = 1
	// DropMailbox: a realtime node's event-loop mailbox was full and
	// the posted work was discarded (overload at the runtime boundary).
	DropMailbox = 2
)

// Drop records the network dropping a packet to proc from peer.
func Drop(at time.Duration, proc, peer ids.ProcID, reason int64) Event {
	return Event{At: at, Type: EvDrop, Proc: proc, Peer: peer, Args: [3]int64{reason}}
}

// Delay records the network jittering a packet to proc from peer.
func Delay(at time.Duration, proc, peer ids.ProcID, by time.Duration) Event {
	return Event{At: at, Type: EvDelay, Proc: proc, Peer: peer, Args: [3]int64{int64(by)}}
}

// CorruptSet records the per-receiver corruption knobs changing.
func CorruptSet(at time.Duration, corruptPermille, truncatePermille int64) Event {
	return Event{At: at, Type: EvCorruptSet, Proc: NoProc, Peer: NoPeer,
		Args: [3]int64{corruptPermille, truncatePermille}}
}

// Corrupt records the network flipping bits in a packet to proc from
// peer.
func Corrupt(at time.Duration, proc, peer ids.ProcID, bits int) Event {
	return Event{At: at, Type: EvCorrupt, Proc: proc, Peer: peer, Args: [3]int64{int64(bits)}}
}

// Truncate records the network truncating a packet to proc from peer,
// keeping kept of size bytes.
func Truncate(at time.Duration, proc, peer ids.ProcID, kept, size int) Event {
	return Event{At: at, Type: EvTruncate, Proc: proc, Peer: peer,
		Args: [3]int64{int64(kept), int64(size)}}
}

// Garbage records the network injecting size random bytes to proc,
// forged to look like they came from peer.
func Garbage(at time.Duration, proc, peer ids.ProcID, size int) Event {
	return Event{At: at, Type: EvGarbage, Proc: proc, Peer: peer, Args: [3]int64{int64(size)}}
}

// MalformedReason codes (Args[0] of EvMalformedDrop) name the ingress
// check that rejected the message. Codes 0 and 1 belonged to the retired
// CRC envelope and are not reused, so old traces still read correctly.
const (
	// MalformedDecode: a header or token failed to decode.
	MalformedDecode int64 = 2
	// MalformedRange: a decoded field was outside its valid range
	// (e.g. a token vector longer than the ring).
	MalformedRange int64 = 3
)

// MalformedDrop records proc's defensive ingress rejecting a message
// apparently from peer for the given reason code.
func MalformedDrop(at time.Duration, proc, peer ids.ProcID, reason int64) Event {
	return Event{At: at, Type: EvMalformedDrop, Proc: proc, Peer: peer, Args: [3]int64{reason}}
}

// Quarantine records proc crossing the malformed-message threshold for
// peer and raising a suspicion.
func Quarantine(at time.Duration, proc, peer ids.ProcID, threshold int) Event {
	return Event{At: at, Type: EvQuarantine, Proc: proc, Peer: peer, Args: [3]int64{int64(threshold)}}
}

// AuthFailReason codes (Args[0] of EvAuthFail) name the authenticated
// ingress check that rejected the frame.
const (
	// AuthBadFrame: the frame was not structurally an authenticated
	// envelope (wrong magic, truncated header or MAC).
	AuthBadFrame int64 = 0
	// AuthBadMAC: the envelope parsed but its MAC did not verify under
	// the claimed epoch's key — a forgery or corruption.
	AuthBadMAC int64 = 1
	// AuthStaleEpoch: the frame authenticated to an epoch the receiver
	// has retired (grace window closed) — a cross-epoch replay.
	AuthStaleEpoch int64 = 2
)

// AuthFail records proc's authenticated ingress rejecting a frame
// apparently from peer for the given reason code, claiming the given
// epoch (zero when the epoch header did not parse).
func AuthFail(at time.Duration, proc, peer ids.ProcID, epoch uint64, reason int64) Event {
	return Event{At: at, Type: EvAuthFail, Proc: proc, Peer: peer, Epoch: epoch, Args: [3]int64{reason}}
}

// Forged records the network injecting a forged frame of size bytes to
// proc, claiming to come from peer.
func Forged(at time.Duration, proc, peer ids.ProcID, size int) Event {
	return Event{At: at, Type: EvForged, Proc: proc, Peer: peer, Args: [3]int64{int64(size)}}
}

// Replayed records the network re-delivering a captured frame of size
// bytes to proc, originally from peer.
func Replayed(at time.Duration, proc, peer ids.ProcID, size int) Event {
	return Event{At: at, Type: EvReplayed, Proc: proc, Peer: peer, Args: [3]int64{int64(size)}}
}

// ShedReason codes (Args[0] of EvShed) name the hard limit that shed
// the message.
const (
	// ShedIngress: a data frame from Peer arrived with the per-peer
	// ingress queue at its cap (drop-newest).
	ShedIngress int64 = 0
	// ShedEgress: an application send found the egress queue at its cap
	// and exhausted its retry budget.
	ShedEgress int64 = 1
)

// Shed records proc's overload layer dropping a message at a hard
// queue limit (peer is the frame's sender for ingress sheds, NoPeer
// for egress sheds).
func Shed(at time.Duration, proc, peer ids.ProcID, reason int64, depth int) Event {
	return Event{At: at, Type: EvShed, Proc: proc, Peer: peer, Args: [3]int64{reason, int64(depth)}}
}

// BackpressureOn records proc's egress depth crossing the high
// watermark (senders asked to pause).
func BackpressureOn(at time.Duration, proc ids.ProcID, depth int) Event {
	return Event{At: at, Type: EvBackpressureOn, Proc: proc, Peer: NoPeer, Args: [3]int64{int64(depth)}}
}

// BackpressureOff records proc's egress depth reaching the low
// watermark again (senders asked to resume).
func BackpressureOff(at time.Duration, proc ids.ProcID, depth int) Event {
	return Event{At: at, Type: EvBackpressureOff, Proc: proc, Peer: NoPeer, Args: [3]int64{int64(depth)}}
}

// RetrySend records proc scheduling retry number attempt of a rejected
// application send, firing after the given backoff.
func RetrySend(at time.Duration, proc ids.ProcID, attempt int, backoff time.Duration) Event {
	return Event{At: at, Type: EvRetrySend, Proc: proc, Peer: NoPeer,
		Args: [3]int64{int64(attempt), int64(backoff)}}
}

// QueueDepth records the network sampling proc's egress queue depth.
func QueueDepth(at time.Duration, proc ids.ProcID, depth int) Event {
	return Event{At: at, Type: EvQueueDepth, Proc: proc, Peer: NoPeer, Args: [3]int64{int64(depth)}}
}

// SenderSpike records the network's flash-crowd sender multiplier
// changing (1 restores the baseline sender population).
func SenderSpike(at time.Duration, multiplier int) Event {
	return Event{At: at, Type: EvSenderSpike, Proc: NoProc, Peer: NoPeer,
		Args: [3]int64{int64(multiplier)}}
}

// SuspectCleared records proc's failure detector clearing its
// suspicion of peer.
func SuspectCleared(at time.Duration, proc, peer ids.ProcID) Event {
	return Event{At: at, Type: EvSuspectCleared, Proc: proc, Peer: peer}
}

// SuspicionScale is the fixed-point scale of the adaptive detector's
// graded suspicion level: level = elapsed × SuspicionScale / mean
// inter-arrival, kept in integers so sweeps stay deterministic.
const SuspicionScale int64 = 1000

// SuspicionRaise records proc's adaptive detector crossing its graded
// suspicion threshold for peer at the given integer-scaled level.
func SuspicionRaise(at time.Duration, proc, peer ids.ProcID, level int64) Event {
	return Event{At: at, Type: EvSuspicionRaise, Proc: proc, Peer: peer, Args: [3]int64{level}}
}

// SuspicionClear records proc's adaptive detector clearing its graded
// suspicion of peer.
func SuspicionClear(at time.Duration, proc, peer ids.ProcID) Event {
	return Event{At: at, Type: EvSuspicionClear, Proc: proc, Peer: peer}
}

// FlapPenalty records proc charging peer a flap-damping penalty,
// leaving the accumulated penalty and flap count.
func FlapPenalty(at time.Duration, proc, peer ids.ProcID, penalty int64, flaps int) Event {
	return Event{At: at, Type: EvFlapPenalty, Proc: proc, Peer: peer,
		Args: [3]int64{penalty, int64(flaps)}}
}

// DegradedSkip records proc routing the token around the damped peer.
func DegradedSkip(at time.Duration, proc, peer ids.ProcID) Event {
	return Event{At: at, Type: EvDegradedSkip, Proc: proc, Peer: peer}
}

// Reinclude records proc re-including peer in its ring rotation after
// the flap penalty decayed to the given value.
func Reinclude(at time.Duration, proc, peer ids.ProcID, penalty int64) Event {
	return Event{At: at, Type: EvReinclude, Proc: proc, Peer: peer, Args: [3]int64{penalty}}
}

// LinkFaultSet records the per-directed-link fault overrides changing
// for the link from→to (all-zero knobs clear the override).
func LinkFaultSet(at time.Duration, from, to ids.ProcID, dropPermille, dupPermille int64, extra time.Duration) Event {
	return Event{At: at, Type: EvLinkFaultSet, Proc: to, Peer: from,
		Args: [3]int64{dropPermille, dupPermille, int64(extra)}}
}

// SlowNodeSet records the network stretching proc's CPU charges by the
// given factor (1 restores full speed).
func SlowNodeSet(at time.Duration, proc ids.ProcID, factor int) Event {
	return Event{At: at, Type: EvSlowNodeSet, Proc: proc, Peer: NoPeer,
		Args: [3]int64{int64(factor)}}
}

// FlapSet records the network starting (period > 0) or stopping
// (period == 0) a partition flap on the link from→to.
func FlapSet(at time.Duration, from, to ids.ProcID, period time.Duration, until time.Duration) Event {
	return Event{At: at, Type: EvFlapSet, Proc: to, Peer: from,
		Args: [3]int64{int64(period), int64(until)}}
}

// Recorder consumes events. Implementations must be deterministic
// (virtual time only) and cheap; Record is called from protocol hot
// paths.
type Recorder interface {
	Record(Event)
	// Enabled reports whether events are consumed at all. Hot paths
	// that would emit high-volume trace-only events (delays, queue
	// samples) may skip constructing them when Enabled is false; an
	// event a counter counts is emitted unconditionally.
	Enabled() bool
}

// Nop is the default recorder: it discards events without allocating.
var Nop Recorder = nopRecorder{}

type nopRecorder struct{}

func (nopRecorder) Record(Event)  {}
func (nopRecorder) Enabled() bool { return false }

// OrNop returns r, or Nop when r is nil — the normalization every
// instrumented component applies to its configured recorder.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return Nop
	}
	return r
}

// Collector retains every recorded event in order — the trace sink
// behind the JSONL exporter.
type Collector struct {
	events []Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Record appends the event.
func (c *Collector) Record(e Event) { c.events = append(c.events, e) }

// Enabled reports true.
func (c *Collector) Enabled() bool { return true }

// Events returns the recorded events (the collector's own slice; do
// not mutate while still recording).
func (c *Collector) Events() []Event { return c.events }

// Len returns the number of recorded events.
func (c *Collector) Len() int { return len(c.events) }

// Multi fans events out to several recorders. Nil and Nop entries are
// dropped; zero live recorders collapse to Nop and a single one is
// returned unwrapped.
func Multi(rs ...Recorder) Recorder {
	var live []Recorder
	for _, r := range rs {
		if r == nil || r == Nop {
			continue
		}
		live = append(live, r)
	}
	switch len(live) {
	case 0:
		return Nop
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Recorder

func (m multi) Record(e Event) {
	for _, r := range m {
		r.Record(e)
	}
}

func (m multi) Enabled() bool { return true }

// MergeRuns concatenates per-run traces in index order, tagging each
// event with its run. Sweeps collect traces by job index, so the merge
// is identical for any worker count.
func MergeRuns(traces [][]Event) []Event {
	var n int
	for _, t := range traces {
		n += len(t)
	}
	out := make([]Event, 0, n)
	for run, t := range traces {
		for _, e := range t {
			e.Run = run
			out = append(out, e)
		}
	}
	return out
}
