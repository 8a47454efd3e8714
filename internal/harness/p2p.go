package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/harness/engine"
	"repro/internal/proto"
	"repro/internal/protocols/arq"
	"repro/internal/protocols/ptest"
	"repro/internal/simnet"
)

// E11: the §1 point-to-point specialization. This experiment compares
// the three classic ARQ protocols (stop-and-wait, go-back-N, selective
// repeat) over contrasting links — the p2p analogue of Figure 2's
// trade-off table.

// ARQKind selects a link protocol.
type ARQKind int

const (
	// StopWait is the window-1 protocol.
	StopWait ARQKind = iota + 1
	// GoBackN is the cumulative-ack sliding window.
	GoBackN
	// SelectiveRepeat is the per-frame-ack sliding window.
	SelectiveRepeat
)

// String renders the kind.
func (k ARQKind) String() string {
	switch k {
	case StopWait:
		return "stop-and-wait"
	case GoBackN:
		return "go-back-N"
	case SelectiveRepeat:
		return "selective-repeat"
	default:
		return fmt.Sprintf("ARQKind(%d)", int(k))
	}
}

// arqStats abstracts the two stats-bearing layer families.
type arqStats interface{ Stats() arq.Stats }

// The E11 link workload: p2pOffered frames of p2pMsgBytes each are
// offered at once and admitted as fast as the p2pWindow-frame window
// allows, with a p2pTimeout retransmission timer, for p2pRunFor.
const (
	p2pWindow   = 16
	p2pTimeout  = 30 * time.Millisecond
	p2pOffered  = 200
	p2pMsgBytes = 256
	p2pRunFor   = time.Second
)

// newARQ builds one layer of the given kind.
func newARQ(kind ARQKind) (proto.Layer, arqStats, error) {
	switch kind {
	case StopWait:
		l := arq.NewStopAndWait(p2pTimeout)
		return l, l, nil
	case GoBackN:
		l := arq.NewGoBackN(p2pWindow, p2pTimeout)
		return l, l, nil
	case SelectiveRepeat:
		l := arq.NewSelectiveRepeat(p2pWindow, p2pTimeout)
		return l, l, nil
	default:
		return nil, nil, fmt.Errorf("harness: unknown ARQ kind %d", kind)
	}
}

// P2PConfig parameterizes the E11 sweep.
type P2PConfig struct {
	Seed int64
	// Parallel is the E11 table's worker count (<= 0 uses GOMAXPROCS);
	// the table is identical for any value.
	Parallel int
}

// DefaultP2PConfig returns the E11 parameters.
func DefaultP2PConfig() P2PConfig {
	return P2PConfig{Seed: 1}
}

// P2PResult is one (link, protocol) measurement.
type P2PResult struct {
	Kind        ARQKind
	Delivered   int
	Retransmits uint64
	AcksSent    uint64
	// Events is the run's DES event count (deterministic per seed).
	Events uint64
}

// p2pLink is one link of the E11 matrix: a two-node network with the
// given one-way delay, losing each packet with probability loss.
type p2pLink struct {
	name      string
	propDelay time.Duration
	loss      float64
}

// p2pLinks is the fixed E11 link matrix.
var p2pLinks = []p2pLink{
	{"fat-pipe (10ms RTT/2)", 10 * time.Millisecond, 0},
	{"lossy (15% drop)", 2 * time.Millisecond, 0.15},
}

// runP2P measures one ARQ protocol on one link.
func runP2P(kind ARQKind, seed int64, link p2pLink) (*P2PResult, error) {
	if _, _, err := newARQ(kind); err != nil {
		return nil, err // validate the kind before the factory can panic
	}
	var stats arqStats
	netCfg := simnet.Config{Nodes: 2, PropDelay: link.propDelay}
	cluster, err := ptest.New(seed, netCfg, 2, func(env proto.Env) []proto.Layer {
		l, s, err := newARQ(kind)
		if err != nil {
			panic(err) // unreachable: kind validated above
		}
		if env.Self() == 0 {
			stats = s
		}
		return []proto.Layer{l}
	})
	if err != nil {
		return nil, err
	}
	if err := cluster.Net.SetFaults(link.loss, 0, 0); err != nil {
		return nil, err
	}
	payload := make([]byte, p2pMsgBytes)
	for i := 0; i < p2pOffered; i++ {
		if err := cluster.Members[0].Stack.Send(1, payload); err != nil {
			return nil, err
		}
	}
	cluster.Run(p2pRunFor)
	res := &P2PResult{
		Kind:        kind,
		Delivered:   len(cluster.Members[1].Delivered),
		Retransmits: stats.Stats().Retransmits,
		AcksSent:    stats.Stats().AcksSent,
		Events:      cluster.Sim.Executed(),
	}
	cluster.Stop()
	return res, nil
}

// P2PRow is one (link, protocol) cell of the E11 table.
type P2PRow struct {
	Link   string
	Result P2PResult
	// PerSec is delivered frames per simulated second.
	PerSec float64
}

// RunP2PSweep measures all three ARQ protocols over the fat-pipe and
// lossy links on a worker pool. Rows come back in deterministic
// (link, protocol) order for any base.Parallel.
func RunP2PSweep(base P2PConfig) ([]P2PRow, error) {
	kinds := []ARQKind{StopWait, GoBackN, SelectiveRepeat}
	pool := engine.New(base.Parallel)
	return engine.Map(pool, len(p2pLinks)*len(kinds), base.Seed,
		func(j engine.Job) (P2PRow, error) {
			link := p2pLinks[j.Index/len(kinds)]
			res, err := runP2P(kinds[j.Index%len(kinds)], base.Seed, link)
			if err != nil {
				return P2PRow{}, err
			}
			return P2PRow{
				Link:   link.name,
				Result: *res,
				PerSec: float64(res.Delivered) / p2pRunFor.Seconds(),
			}, nil
		})
}

// RenderP2PTable prints the E11 table.
func RenderP2PTable(rows []P2PRow) string {
	var b strings.Builder
	b.WriteString("E11 — point-to-point specialization (§1): throughput and waste per link\n\n")
	fmt.Fprintf(&b, "%-22s %-18s %12s %12s\n", "link", "protocol", "delivered/s", "retransmits")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-22s %-18s %12.0f %12d\n",
			row.Link, row.Result.Kind, row.PerSec, row.Result.Retransmits)
	}
	return b.String()
}
