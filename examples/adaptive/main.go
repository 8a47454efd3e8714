// Adaptive: the "Performance" use case of §1 — a hybrid protocol built
// by switching at the Figure 2 crossover. The offered load ramps from 2
// to 8 active senders and back; a hysteresis oracle switches between
// the sequencer (best at low load) and the token protocol (no
// bottleneck at high load), and the example reports the per-phase
// latency the application observed.
//
// Runs on the deterministic discrete-event simulator (virtual time), so
// it finishes in well under a second of wall time.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core/switching"
	"repro/internal/harness"
	"repro/internal/ids"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.SetOutput(os.Stderr)
		log.Fatal("adaptive: ", err)
	}
}

func run() error {
	rc := harness.DefaultRunConfig()
	rc.Warmup = 0
	rc.Measure = 24 * time.Second
	rc.Drain = 4 * time.Second

	swCfg := switching.PaperExact(harness.Factories()...)
	swCfg.OnSwitchComplete = func(r switching.Record) {
		fmt.Printf("  t=%-6v switch by %v closed epoch %d (took %v)\n",
			r.Started.Round(time.Millisecond), r.Initiator, r.Epoch,
			r.Duration().Round(time.Millisecond))
	}
	run, err := harness.NewSwitchedRun(rc, swCfg)
	if err != nil {
		return err
	}
	sim := run.Cluster.Sim

	// Load profile: each phase lasts 6 virtual seconds.
	phases := []int{2, 8, 2, 8}
	const phaseLen = 6 * time.Second
	level := func() int {
		idx := int(sim.Now() / phaseLen)
		if idx >= len(phases) {
			return 0
		}
		return phases[idx]
	}

	// 50 msgs/s per active sender, like §7.
	interval := 20 * time.Millisecond
	for s := 0; s < rc.Group; s++ {
		p := ids.ProcID(s)
		var tick func()
		tick = func() {
			if sim.Now() >= rc.Measure {
				return
			}
			if int(p) < level() {
				run.Cast(p)
			}
			sim.After(interval, tick)
		}
		sim.After(time.Duration(s)*interval/10, tick)
	}
	// The oracle: hysteresis around the Figure 2 crossover (between 5
	// and 6 active senders), polled twice a second by the manager.
	oracle, err := switching.NewHysteresisOracle(4.5, 6.5)
	if err != nil {
		return err
	}
	ctrl, err := switching.NewController(run.Cluster.Members[0].Switch, oracle,
		func() float64 { return float64(level()) }, 500*time.Millisecond)
	if err != nil {
		return err
	}

	fmt.Println("load profile: 2 -> 8 -> 2 -> 8 active senders, 6s per phase")
	fmt.Println("oracle: hysteresis band [4.5, 6.5) around the crossover")
	fmt.Println()
	res := run.Finish()

	fmt.Printf("\noverall: %d deliveries, mean latency %.1f ms, p99 %.1f ms\n",
		res.Delivered, harness.Millis(res.Stats.Mean), harness.Millis(res.Stats.P99))
	fmt.Printf("controller issued %d switch requests (one per load edge —\n", ctrl.SwitchRequests)
	fmt.Println("an aggressive threshold oracle would oscillate; see")
	fmt.Println("`switchbench -experiment hysteresis`)")

	active := run.Cluster.Members[0].Switch.ActiveProtocol()
	name := []string{"sequencer", "token"}[active]
	fmt.Printf("final active protocol: %s (epoch %d)\n", name, run.Cluster.Members[0].Switch.Epoch())
	return nil
}
