// Verify: the formal layer applied to a live run. The example drives a
// switched execution (sequencer → token order, mid-traffic), records
// the application-level trace, writes it as JSON (consumable by
// cmd/tracecheck), and evaluates every Table 1 property plus the
// repository's extensions against it — the same machine-checkable
// verdicts the paper's Table 2 predicts.
//
//	go run ./examples/verify [trace.json]
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core/switching"
	"repro/internal/core/switching/swtest"
	"repro/internal/harness"
	"repro/internal/ids"
	"repro/internal/property"
	"repro/internal/proto"
	"repro/internal/protocols/ptest"
	"repro/internal/simnet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.SetFlags(0)
		log.SetOutput(os.Stderr)
		log.Fatal("verify: ", err)
	}
}

func run(args []string) error {
	const members = 4
	cfg := switching.PaperExact(harness.Factories()...)
	cluster, err := swtest.NewSwitched(5, simnet.Ethernet10Mbit(members), members, cfg)
	if err != nil {
		return err
	}

	var sent []ptest.SentMsg
	cast := func(p ids.ProcID, seq uint32, body string) {
		m := proto.AppMsg{ID: proto.MakeMsgID(p, seq), Sender: p, Body: []byte(body)}
		s, err := cluster.CastApp(m)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cast:", err)
			return
		}
		sent = append(sent, s)
	}

	fmt.Println("running: 4 members, 24 messages, one protocol switch mid-stream")
	for i := 0; i < 24; i++ {
		at := time.Duration(i+1) * 4 * time.Millisecond
		i := i
		cluster.Sim.At(at, func() {
			cast(ids.ProcID(i%members), uint32(i), fmt.Sprintf("msg-%02d", i))
		})
	}
	cluster.Sim.At(50*time.Millisecond, func() {
		cluster.Members[1].Switch.RequestSwitch()
	})
	// A back-to-back burst: the second send departs before the first
	// loops back, so the Amoeba discipline is structurally violated
	// (the paper's protocols enforce it; plain total order does not).
	cluster.Sim.At(60*time.Millisecond, func() {
		cast(3, 100, "burst-a")
		cast(3, 101, "burst-b")
	})
	cluster.Run(10 * time.Second)
	cluster.Stop()

	tr, err := cluster.TraceTimed(sent)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %d events (%d sends, %d deliveries across %d members)\n\n",
		len(tr), len(sent), len(tr)-len(sent), members)

	// Persist for cmd/tracecheck.
	out := "trace.json"
	if len(args) > 0 {
		out = args[0]
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace written to %s (try: go run ./cmd/tracecheck -trace %s)\n\n", out, out)

	// Evaluate the predicates. Both protocols are total-order over
	// reliable FIFO, so everything the SP preserves must hold.
	group := ids.Procs(members)
	trusted := map[ids.ProcID]bool{}
	for _, p := range group {
		trusted[p] = true
	}
	checks := []struct {
		p    property.Property
		want bool
		why  string
	}{
		{property.Reliability{Group: group}, true, "preserved by SP (§6.3 note)"},
		{property.TotalOrder{}, true, "all six meta-properties (Table 2)"},
		{property.Integrity{Trusted: trusted}, true, "all six meta-properties"},
		{property.Confidentiality{Trusted: trusted}, true, "all six meta-properties"},
		{property.NoReplay{}, true, "bodies are unique in this workload"},
		{property.CausalOrder{}, true, "subsumed by the SP's epoch boundary"},
		{property.PrioritizedDelivery{Master: 0}, false, "not asynchronous (§5.2): no protocol here enforces it"},
		{property.Amoeba{}, false, "the burst sent twice without awaiting its own delivery"},
	}
	fmt.Printf("%-22s %-10s %s\n", "property", "verdict", "expectation")
	mismatches := 0
	for _, c := range checks {
		got := c.p.Holds(tr)
		verdict := "HOLDS"
		if !got {
			verdict = "violated"
		}
		marker := " "
		if got != c.want {
			marker = "!"
			mismatches++
		}
		fmt.Printf("%s %-20s %-10s %s\n", marker, c.p.Name(), verdict, c.why)
	}
	if mismatches > 0 {
		return fmt.Errorf("%d properties disagreed with the Table 2 prediction", mismatches)
	}
	fmt.Println("\nevery verdict matches what Table 2 predicts for this workload.")
	return nil
}
