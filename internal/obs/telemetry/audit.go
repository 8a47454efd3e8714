package telemetry

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
)

// Round outcomes. Every round reaches exactly one of these: Finalize
// marks any round without a completion as aborted, including the
// abandoned case where the sole initiator crashed and no survivor was
// mid-switch (observationally the round aborted — nothing advanced).
const (
	OutcomeComplete = "complete"
	OutcomeAbort    = "abort"
)

// Round is one switch-decision record: the full lifecycle of the round
// that closed Epoch, stitched from the trace events of every member.
type Round struct {
	// Run tags the sweep run (set at merge time).
	Run int `json:"run"`
	// Epoch is the delivery epoch the round closed — the round's key.
	Epoch uint64 `json:"epoch"`
	// Initiator is the member that first started the round; a recovery
	// takeover shows up as Starts > 1 (the record keeps the first).
	Initiator int `json:"initiator"`
	// Gen is the newest token lineage observed on the round's events.
	Gen uint64 `json:"gen"`
	// ProtoBefore/ProtoAfter resolve the epoch to protocol indices
	// (epoch e runs protocol e mod N); -1 when the cycle length is
	// unknown to the audit config.
	ProtoBefore int `json:"proto_before"`
	ProtoAfter  int `json:"proto_after"`
	// StartNS is when the first initiator started the round; EndNS the
	// last terminal event seen (completion or abort).
	StartNS time.Duration `json:"start_ns"`
	EndNS   time.Duration `json:"end_ns"`
	// DurationNS is the completing initiator's end-to-end measurement
	// (zero for aborted rounds).
	DurationNS time.Duration `json:"duration_ns"`
	// Lifecycle counts across all members.
	Starts    int `json:"starts"`
	Completes int `json:"completes,omitempty"`
	Aborts    int `json:"aborts,omitempty"`
	Regens    int `json:"regens,omitempty"`
	// Advances counts members that completed the switch locally
	// (EpochAdvance); Forced counts members that adopted the epoch
	// after missing the round (EpochForced).
	Advances int `json:"advances,omitempty"`
	Forced   int `json:"forced,omitempty"`
	// Buffered/StaleDropped count the frames buffered ahead of the
	// round and dropped behind it while it ran.
	Buffered     int `json:"buffered,omitempty"`
	StaleDropped int `json:"stale_dropped,omitempty"`
	// Outcome is OutcomeComplete or OutcomeAbort (set by Finalize).
	Outcome string `json:"outcome"`
}

// Audit stitches switch-round events into per-epoch decision records.
// Like the Sampler it is a single-run recorder; a round record exists
// for every epoch on which a SwitchStart, SwitchComplete, or
// SwitchAbort was observed, and secondary events (advances, buffered
// frames, regens, stale drops) attach to an existing record only — a
// stale drop for an epoch closed before recording started must not
// fabricate a round.
type Audit struct {
	protocols int
	rounds    map[uint64]*Round
}

// NewAudit returns an empty audit trail.
func NewAudit(cfg Config) *Audit {
	return &Audit{protocols: cfg.Protocols, rounds: make(map[uint64]*Round)}
}

// Enabled reports true (Recorder contract).
func (a *Audit) Enabled() bool { return true }

// round returns the record for the round closing epoch, creating it on
// first sight.
func (a *Audit) round(epoch uint64) *Round {
	r := a.rounds[epoch]
	if r == nil {
		r = &Round{Epoch: epoch, Initiator: -1}
		a.rounds[epoch] = r
	}
	return r
}

// attach returns the existing record for epoch, or nil.
func (a *Audit) attach(epoch uint64) *Round {
	return a.rounds[epoch]
}

// Record consumes one event. Only the switch-round vocabulary is
// inspected; everything else is ignored.
func (a *Audit) Record(e obs.Event) {
	switch e.Type {
	case obs.EvSwitchStart:
		r := a.round(e.Epoch)
		if r.Starts == 0 {
			r.Initiator = int(e.Proc)
			r.StartNS = e.At
		}
		r.Starts++
		r.EndNS = e.At
		if e.Gen > r.Gen {
			r.Gen = e.Gen
		}
	case obs.EvSwitchComplete:
		r := a.round(e.Epoch)
		r.Completes++
		r.EndNS = e.At
		if r.DurationNS == 0 {
			r.DurationNS = time.Duration(e.Args[0])
		}
		if e.Gen > r.Gen {
			r.Gen = e.Gen
		}
	case obs.EvSwitchAbort:
		r := a.round(e.Epoch)
		r.Aborts++
		r.EndNS = e.At
		if e.Gen > r.Gen {
			r.Gen = e.Gen
		}
	case obs.EvEpochAdvance:
		// The event carries the epoch *entered*; the round closed the
		// one before it.
		if e.Epoch > 0 {
			if r := a.attach(e.Epoch - 1); r != nil {
				r.Advances++
			}
		}
	case obs.EvEpochForced:
		if e.Epoch > 0 {
			if r := a.attach(e.Epoch - 1); r != nil {
				r.Forced++
			}
		}
	case obs.EvTokenRegen:
		// A regeneration mid-round carries the regenerator's delivery
		// epoch — the epoch the in-flight round is closing.
		if r := a.attach(e.Epoch); r != nil {
			r.Regens++
		}
	case obs.EvBuffered:
		// Buffered frames carry the *future* epoch they belong to; the
		// round in flight is closing the epoch before it.
		if e.Epoch > 0 {
			if r := a.attach(e.Epoch - 1); r != nil {
				r.Buffered++
			}
		}
	case obs.EvStaleDrop:
		// Stale frames carry the closed epoch they missed.
		if r := a.attach(e.Epoch); r != nil {
			r.StaleDropped++
		}
	}
}

// Finalize assigns terminal outcomes and returns the records sorted by
// epoch. It is idempotent; recording after Finalize is allowed and a
// later Finalize reflects the additional events.
func (a *Audit) Finalize() []Round {
	out := make([]Round, 0, len(a.rounds))
	for _, r := range a.rounds {
		rec := *r
		if rec.Completes > 0 {
			rec.Outcome = OutcomeComplete
		} else {
			rec.Outcome = OutcomeAbort
		}
		if a.protocols > 0 {
			rec.ProtoBefore = int(rec.Epoch % uint64(a.protocols))
			rec.ProtoAfter = int((rec.Epoch + 1) % uint64(a.protocols))
		} else {
			rec.ProtoBefore, rec.ProtoAfter = -1, -1
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out
}

// MergeRounds concatenates per-run audit records in index order,
// tagging each with its run.
func MergeRounds(perRun [][]Round) []Round {
	var n int
	for _, rs := range perRun {
		n += len(rs)
	}
	out := make([]Round, 0, n)
	for run, rs := range perRun {
		for _, r := range rs {
			r.Run = run
			out = append(out, r)
		}
	}
	return out
}

// Telemetry bundles the two single-run consumers behind one Recorder,
// which is what run harnesses wire into their obs.Multi fan-out.
type Telemetry struct {
	Sampler *Sampler
	Audit   *Audit
}

// New builds a Sampler + Audit pair from one config.
func New(cfg Config) *Telemetry {
	return &Telemetry{Sampler: NewSampler(), Audit: NewAudit(cfg)}
}

// Record feeds both consumers.
func (t *Telemetry) Record(e obs.Event) {
	t.Sampler.Record(e)
	t.Audit.Record(e)
}

// Enabled reports true (Recorder contract).
func (t *Telemetry) Enabled() bool { return true }

// Finish closes the sampler's last window at the run horizon.
func (t *Telemetry) Finish(end time.Duration) { t.Sampler.Finish(end) }

// String renders a one-line summary (progress lines, debugging).
func (t *Telemetry) String() string {
	return fmt.Sprintf("telemetry: %d windows, %d rounds", len(t.Sampler.Windows()), len(t.Audit.rounds))
}
