package wire

import "testing"

// Micro-benchmarks of the authenticated envelope. Run with
// `go test -bench Envelope -benchmem ./internal/wire`.

var benchPayload = func() []byte {
	b := make([]byte, 256)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}()

var benchSink []byte

func BenchmarkEnvelopeSealAuth(b *testing.B) {
	key := DeriveEpochKey([]byte("bench session"), 1)
	b.ReportAllocs()
	b.SetBytes(int64(len(benchPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = SealAuth(key, 1, benchPayload)
	}
}

func BenchmarkEnvelopeOpenAuth(b *testing.B) {
	key := DeriveEpochKey([]byte("bench session"), 1)
	pkt := SealAuth(key, 1, benchPayload)
	b.ReportAllocs()
	b.SetBytes(int64(len(benchPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := OpenAuth(key, pkt)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = p
	}
}

// BenchmarkEnvelopeSealAuthCached is the steady-state authed seal: the
// cached-HMAC AuthSealer the switching key schedule holds per epoch.
// It must report 0 allocs/op (asserted in TestAuthSealerAllocs).
func BenchmarkEnvelopeSealAuthCached(b *testing.B) {
	sealer := NewAuthSealer(DeriveEpochKey([]byte("bench session"), 1), 1)
	dst := make([]byte, 0, MaxAuthOverhead+len(benchPayload))
	b.ReportAllocs()
	b.SetBytes(int64(len(benchPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = sealer.SealTo(dst, benchPayload)
	}
}

func BenchmarkEnvelopeOpenAuthCached(b *testing.B) {
	sealer := NewAuthSealer(DeriveEpochKey([]byte("bench session"), 1), 1)
	pkt := sealer.SealTo(nil, benchPayload)
	b.ReportAllocs()
	b.SetBytes(int64(len(benchPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := sealer.Open(pkt)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = p
	}
}

// BenchmarkEnvelopeOpenRepeat opens one heartbeat-sized frame over and
// over: after the first open the sealer's memo answers, so this is the
// cost of a repeated heartbeat, not of HMAC (the 256-byte benchmarks
// above never fit the memo).
func BenchmarkEnvelopeOpenRepeat(b *testing.B) {
	sealer := NewAuthSealer(DeriveEpochKey([]byte("bench session"), 1), 1)
	pkt := SealAuth(DeriveEpochKey([]byte("bench session"), 1), 1, []byte{3, 1})
	b.ReportAllocs()
	b.SetBytes(int64(len(pkt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := sealer.Open(pkt)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = p
	}
}

func BenchmarkDeriveEpochKey(b *testing.B) {
	session := []byte("bench session")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = DeriveEpochKey(session, uint64(i))
	}
}
