package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// BenchmarkStackThroughput* are the E18 grid as Go benchmarks: each
// iteration executes one full deterministic DES run of the switching
// stack and reports msgs/sec (app deliveries over wall time) and
// allocs/msg alongside the usual ns/op. CI runs them with -benchtime 1x
// as a smoke signal; the gated numbers live in BENCH_perf.json
// (cmd/switchbench -experiment perf + cmd/benchdiff).

// benchPerfConfig is a shortened E18 cell: same shape as the artifact
// runs, small enough for -benchtime 1x CI runs.
func benchPerfConfig(pt PerfPoint) PerfConfig {
	return PerfConfig{
		Seed: 1,
		Run: RunConfig{
			Warmup:  50 * time.Millisecond,
			Measure: 400 * time.Millisecond,
			Drain:   300 * time.Millisecond,
		},
		Points: []PerfPoint{pt},
	}
}

func benchStackThroughput(b *testing.B, pt PerfPoint) {
	b.ReportAllocs()
	var lastRow PerfRow
	for i := 0; i < b.N; i++ {
		rows, err := RunPerf(benchPerfConfig(pt))
		if err != nil {
			b.Fatal(err)
		}
		lastRow = rows[0]
		if lastRow.Delivered == 0 {
			b.Fatalf("%s: delivered nothing", pt)
		}
	}
	b.ReportMetric(lastRow.MsgsPerSec, "msgs/sec")
	b.ReportMetric(lastRow.AllocsPerMsg, "allocs/msg")
}

func BenchmarkStackThroughputSequencerSealed(b *testing.B) {
	benchStackThroughput(b, PerfPoint{Protocol: "sequencer", Variant: "sealed"})
}

func BenchmarkStackThroughputSequencerSealedBatched(b *testing.B) {
	benchStackThroughput(b, PerfPoint{Protocol: "sequencer", Variant: "sealed", Batched: true})
}

func BenchmarkStackThroughputSequencerAuthed(b *testing.B) {
	benchStackThroughput(b, PerfPoint{Protocol: "sequencer", Variant: "authed"})
}

func BenchmarkStackThroughputSequencerAuthedBatched(b *testing.B) {
	benchStackThroughput(b, PerfPoint{Protocol: "sequencer", Variant: "authed", Batched: true})
}

func BenchmarkStackThroughputTokenSealed(b *testing.B) {
	benchStackThroughput(b, PerfPoint{Protocol: "token", Variant: "sealed"})
}

func BenchmarkStackThroughputTokenSealedBatched(b *testing.B) {
	benchStackThroughput(b, PerfPoint{Protocol: "token", Variant: "sealed", Batched: true})
}

func BenchmarkStackThroughputHybridAuthed(b *testing.B) {
	benchStackThroughput(b, PerfPoint{Protocol: "hybrid", Variant: "authed"})
}

func BenchmarkStackThroughputHybridAuthedBatched(b *testing.B) {
	benchStackThroughput(b, PerfPoint{Protocol: "hybrid", Variant: "authed", Batched: true})
}

// sealedWirePath is one message's sealed (non-auth) egress+ingress wire
// work with the pooled layers: mux channel framing on a pooled encoder,
// CRC envelope into a pooled buffer, then envelope open and channel
// decode on the receive side. This is the per-message marginal cost of
// the sealed hot path with everything protocol-independent stripped —
// the piece the zero-alloc claim is about. Returns the decoded payload
// length so the work cannot be optimized away.
func sealedWirePath(payload []byte) int {
	// Egress: channel tag + envelope.
	e := wire.GetEncoder()
	e.Channel(2)
	frame := e.Frame(payload)
	bp := wire.GetBuf()
	pkt := wire.SealTo(*bp, frame)
	// Ingress: envelope open + channel route.
	inner, err := wire.Open(pkt)
	if err != nil {
		panic(err)
	}
	d := wire.NewDecoder(inner)
	d.Channel()
	n := len(d.Remaining())
	*bp = pkt[:0]
	wire.PutBuf(bp)
	wire.PutEncoder(e)
	return n
}

// TestSealedWirePathZeroAlloc pins the acceptance claim: the sealed
// non-auth steady-state wire path allocates nothing per message.
func TestSealedWirePathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector, so the pooled path allocates")
	}
	payload := make([]byte, 256)
	if got := sealedWirePath(payload); got != len(payload) {
		t.Fatalf("wire path round-tripped %d bytes, want %d", got, len(payload))
	}
	allocs := testing.AllocsPerRun(200, func() {
		sealedWirePath(payload)
	})
	if allocs != 0 {
		t.Fatalf("sealed wire path allocated %.1f times per message, want 0", allocs)
	}
}

var benchWireSink int

// BenchmarkStackThroughputSealedWirePath is the wire-path-only row: the
// per-message cost of the pooled mux framing + CRC envelope round trip.
// Must report 0 allocs/op (asserted in TestSealedWirePathZeroAlloc).
func BenchmarkStackThroughputSealedWirePath(b *testing.B) {
	payload := make([]byte, 256)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchWireSink = sealedWirePath(payload)
	}
}

// TestRunPerfSmoke runs a minimal grid end to end: every variant
// delivers, the batched sibling of each cell delivers the same virtual
// workload, and the renderer covers all rows.
func TestRunPerfSmoke(t *testing.T) {
	cfg := PerfConfig{
		Seed: 3,
		Run: RunConfig{
			Warmup:  50 * time.Millisecond,
			Measure: 300 * time.Millisecond,
			Drain:   300 * time.Millisecond,
		},
		Points: []PerfPoint{
			{Protocol: "sequencer", Variant: "plain"},
			{Protocol: "sequencer", Variant: "sealed", Batched: true},
			{Protocol: "token", Variant: "authed", Batched: true},
			{Protocol: "hybrid", Variant: "authed", Batched: true},
		},
	}
	rows, err := RunPerf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Points) {
		t.Fatalf("got %d rows, want %d", len(rows), len(cfg.Points))
	}
	for _, r := range rows {
		if r.Delivered == 0 {
			t.Errorf("%s: delivered nothing", r.PerfPoint)
		}
		if r.MsgsPerSec <= 0 || r.AllocsPerMsg <= 0 {
			t.Errorf("%s: missing host-side numbers: %+v", r.PerfPoint, r)
		}
	}
	out := RenderPerf(rows)
	if !strings.Contains(out, "sequencer") || !strings.Contains(out, "hybrid") {
		t.Errorf("render missing rows:\n%s", out)
	}
}
