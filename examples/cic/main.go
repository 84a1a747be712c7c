// Communication-induced checkpointing vs the domino effect: the same
// asynchronous, domino-provoking workload runs under independent
// checkpointing and under the CIC protocol, and the rollback-dependency
// analysis compares where a failure at the end of the run would send each
// scheme. Indep's recovery line is dragged backwards by orphan messages
// (possibly all the way to the initial states); CIC's forced checkpoints
// keep the line at every process's latest checkpoint.
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rdg"
	"repro/internal/sim"
)

func main() {
	cfg := par.DefaultConfig()
	wl := bench.AsyncWorkload(300, 20_000)
	// The spread staggers the nodes' basic-checkpoint timers, so messages
	// constantly cross checkpoint intervals — the domino construction for
	// Indep, and the forced-checkpoint case for CIC.
	run := core.Config{Machine: cfg, Interval: 2 * sim.Second, Spread: 250 * sim.Millisecond}

	for _, v := range []ckpt.Variant{ckpt.Indep, ckpt.CIC} {
		run.Scheme = v
		res, err := core.Run(wl, run)
		if err != nil {
			log.Fatal(err)
		}
		recs, stats := res.Records, res.Ckpt
		g := rdg.FromRecords(cfg.Fabric.Nodes(), recs)
		line := g.RecoveryLine()
		latest := g.Latest()

		fmt.Printf("%s: %d checkpoints", v, len(recs))
		if v.CommunicationInduced() {
			fmt.Printf(" (%d forced by the induced rule, %d basic, %d at termination)",
				stats.ForcedCkpts, stats.Checkpoints-stats.ForcedCkpts, stats.FinalCkpts)
		}
		fmt.Println()
		fmt.Printf("  latest checkpoints per process: %v\n", latest)
		fmt.Printf("  recovery line:                  %v\n", line)
		fmt.Printf("  generations rolled back:        %v\n", g.RollbackCheckpoints(line))
		if g.Domino(line) {
			fmt.Println("  DOMINO EFFECT: some process restarts from its initial state")
		}
		if g.ZeroRollback() {
			fmt.Println("  zero rollback: a failure now loses no checkpointed work")
		}
		fmt.Println()
	}

	fmt.Println("CIC pays for this guarantee in forced checkpoints taken before")
	fmt.Println("delivering messages whose piggybacked index is ahead of the")
	fmt.Println("receiver — the index-based protocol of Briatico, Ciuffoletti and")
	fmt.Println("Simoncini. Independent checkpointing is cheaper per checkpoint but")
	fmt.Println("its recovery line can collapse arbitrarily far (the paper's §4).")
}
