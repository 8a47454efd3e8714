package switching

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/wire"
)

// TestForgedEpochsKeepNoSealer: a frame may claim any epoch at or above
// the member's send epoch, so forgeries can name as many as the forger
// likes. The sealer derived to check such a claim must stay out of the
// member's key schedule until a frame verifies under it — and then it
// must be kept.
func TestForgedEpochsKeepNoSealer(t *testing.T) {
	_, _, sw := quietGroup(t, obs.NewCollector())
	s := sw[1]
	heartbeat := []byte{byte(detectorChannel), 1}
	before := len(s.epochSealers)
	for i := uint64(1); i <= 1000; i++ {
		epoch := s.sendEpoch + i
		s.Recv(2, wire.SealAuth(wire.DeriveEpochKey([]byte("guessed session key"), epoch), epoch, heartbeat))
	}
	if got := s.Stats().AuthFailed; got != 1000 {
		t.Fatalf("AuthFailed = %d after 1000 forgeries, want 1000", got)
	}
	if got := len(s.epochSealers); got != before {
		t.Fatalf("1000 forged future epochs grew the key schedule from %d to %d sealers", before, got)
	}
	// A run of forgeries claiming one epoch derives its key once.
	probe, last := s.probe, s.sendEpoch+1000
	s.Recv(2, wire.SealAuth(wire.DeriveEpochKey([]byte("guessed session key"), last), last, heartbeat))
	if s.probe != probe || probe.Epoch() != last {
		t.Fatal("a second forgery claiming the probe's epoch derived a new sealer")
	}
	epoch := s.sendEpoch + 3
	s.Recv(2, wire.SealAuth(wire.DeriveEpochKey([]byte("k"), epoch), epoch, heartbeat))
	if s.Stats().AuthFailed != 1001 || s.epochSealers[epoch] == nil || s.maxAuthEpoch != epoch {
		t.Fatalf("a genuine frame from epoch %d: AuthFailed %d, kept %v, maxAuthEpoch %d",
			epoch, s.Stats().AuthFailed, s.epochSealers[epoch] != nil, s.maxAuthEpoch)
	}
}
