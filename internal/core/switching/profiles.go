package switching

import "time"

// The package ships two named configurations. Everything else a caller
// wants is one of these with existing fields tuned (TokenInterval,
// Recorder, OnSwitchComplete, tighter caps, detector timeouts).

// PaperExact is the switching protocol exactly as §2 of the paper states
// it, and nothing more: one token rotating NORMAL → PREPARE → SWITCH →
// FLUSH, the send-count vector gathered on the PREPARE lap and
// disseminated on the SWITCH lap, new-epoch messages buffered until the
// vector is met. It assumes what the paper assumes — crash-free members
// and a benign network — so Recovery, Defense and Overload are all nil:
// no failure detector, plain frames, unbounded queues. It exists to
// reproduce the paper's own numbers (Figure 2, the §7 switch overhead,
// hysteresis; E1–E9 and the bench's paper_switch workload); a single
// crash wedges its ring (the E10 boundary).
func PaperExact(protocols ...ProtocolFactory) Config {
	return Config{Protocols: protocols}
}

// Hardened is the configuration every fault sweep, the telemetry run and
// the steady benchmarks use: PaperExact's protocol with every defence
// on. Recovery repairs the ring around crashed or suspected members
// (adaptive phi-style suspicion and flap damping included), Defense
// seals every transport frame in the authenticated envelope under
// per-epoch keys derived from sessionKey, and Overload bounds every
// queue and batches up to eight mux frames per sealed wire write. The
// overload caps are generous — nothing is shed at the steady benchmarks'
// rates — and the quarantine threshold is out of reach of accidental
// damage; a harness that wants shedding or quarantine exercised tightens
// those fields.
func Hardened(sessionKey []byte, protocols ...ProtocolFactory) Config {
	cfg := PaperExact(protocols...)
	cfg.Defense = &DefenseConfig{
		QuarantineThreshold: 1 << 20,
		Auth:                &AuthConfig{SessionKey: sessionKey},
	}
	cfg.Overload = &OverloadConfig{
		IngressQueueCap: 4096,
		EgressQueueCap:  4096,
		LowWatermark:    64,
		HighWatermark:   2048,
		ServiceInterval: 100 * time.Microsecond,
		RetryBackoff:    time.Millisecond,
		MaxRetryShift:   2,
		BatchMax:        8,
	}
	cfg.Recovery = &RecoveryConfig{Adaptive: &AdaptiveConfig{}}
	return cfg
}
