// Upgrade: the "On-line Upgrading" use case of §1 — "protocol switching
// can be used to upgrade networking protocols at run-time without
// having to restart applications. Even minor bug fixes may be done in
// this way."
//
// Here the group migrates its sequencer role from member 0 (being
// drained for maintenance) to member 4 by switching between two
// configurations of the same protocol, mid-traffic, with zero message
// loss and total order intact.
//
//	go run ./examples/upgrade
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core/switching"
	"repro/internal/core/switching/swtest"
	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/protocols/fifo"
	"repro/internal/protocols/seqorder"
	"repro/internal/simnet"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.SetOutput(os.Stderr)
		log.Fatal("upgrade: ", err)
	}
}

func run() error {
	const members = 5
	cfg := switching.PaperExact(
		// v1: sequencer at member 0.
		func(proto.Env) []proto.Layer {
			return []proto.Layer{seqorder.New(0), fifo.New(fifo.Config{})}
		},
		// v2: sequencer at member 4.
		func(proto.Env) []proto.Layer {
			return []proto.Layer{seqorder.New(4), fifo.New(fifo.Config{})}
		},
	)
	cfg.OnSwitchComplete = func(r switching.Record) {
		fmt.Printf("  upgrade completed in %v (initiated by %v)\n",
			r.Duration().Round(time.Millisecond), r.Initiator)
	}
	cluster, err := swtest.NewSwitched(7, simnet.Ethernet10Mbit(members), members, cfg)
	if err != nil {
		return err
	}
	sim := cluster.Sim

	const total = 40
	sent := 0
	var tick func()
	tick = func() {
		if sent >= total {
			return
		}
		p := ids.ProcID(sent % members)
		m := proto.AppMsg{
			ID:     proto.MakeMsgID(p, uint32(sent)),
			Sender: p,
			Body:   []byte(fmt.Sprintf("order-%02d", sent)),
		}
		sent++
		if err := cluster.Members[p].Switch.Cast(m.Encode()); err != nil {
			fmt.Fprintln(os.Stderr, "cast:", err)
		}
		sim.After(5*time.Millisecond, tick)
	}
	sim.After(0, tick)

	fmt.Println("streaming 40 orders through sequencer v1 (at member 0)...")
	sim.At(60*time.Millisecond, func() {
		fmt.Println("  t=60ms: operator requests the v1 -> v2 upgrade")
		cluster.Members[0].Switch.RequestSwitch()
	})
	cluster.Run(10 * time.Second)
	cluster.Stop()

	ref, err := cluster.AppBodies(0)
	if err != nil {
		return err
	}
	if len(ref) != total {
		return fmt.Errorf("member 0 delivered %d/%d orders", len(ref), total)
	}
	for p := 1; p < members; p++ {
		got, err := cluster.AppBodies(ids.ProcID(p))
		if err != nil {
			return err
		}
		if len(got) != total {
			return fmt.Errorf("member %d delivered %d/%d orders", p, len(got), total)
		}
		for i := range ref {
			if got[i] != ref[i] {
				return fmt.Errorf("member %d disagrees at %d", p, i)
			}
		}
	}
	for p := 0; p < members; p++ {
		if e := cluster.Members[p].Switch.Epoch(); e != 1 {
			return fmt.Errorf("member %d still on epoch %d", p, e)
		}
	}
	fmt.Printf("\nall %d orders delivered at all %d members, in one total order,\n", total, members)
	fmt.Println("across the upgrade; the application never restarted, senders were")
	fmt.Println("never blocked, and member 0 now carries no sequencing traffic.")
	return nil
}
