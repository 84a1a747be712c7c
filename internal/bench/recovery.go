package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/sim"
)

// demoStateBytes is the per-node state of both recovery demos' ring.
const demoStateBytes = 200_000

// demoEntry runs a fixed-parameter recovery demo as its catalogue entry's one
// cell (the demo's ring under scheme). The report is held back until the cell
// finishes, so a cancelled run writes nothing, as with every other entry; the
// demos have no reduced size, so -quick changes nothing.
func demoEntry(scheme ckpt.Variant, demo func(io.Writer, par.Config) error) func(context.Context, io.Writer, par.Config, bool, *Runner) error {
	return func(ctx context.Context, w io.Writer, cfg par.Config, _ bool, r *Runner) error {
		var report bytes.Buffer
		cell := Cell{App: syntheticWorkload(demoStateBytes).Name, Scheme: scheme.String()}
		if err := r.ForEach(ctx, []Cell{cell}, func(context.Context, int, Cell) error {
			return demo(&report, cfg)
		}); err != nil {
			return err
		}
		_, err := report.WriteTo(w)
		return err
	}
}

// RecoveryDemo (E7) runs a recovery-consistent workload under a coordinated
// scheme, injects a total system failure mid-run, recovers from the last
// committed global checkpoint, lets the computation finish, and verifies the
// final results against the failure-free oracle. It reports the rollback
// distance and the recovery cost.
func RecoveryDemo(w io.Writer, cfg par.Config, v ckpt.Variant, interval, crashAt, repair sim.Duration) error {
	if !v.Coordinated() {
		return fmt.Errorf("bench: recovery demo uses coordinated schemes (independent recovery is analyzed by chkbench -exp domino)")
	}
	wl := syntheticWorkload(demoStateBytes)

	// Failure-free baseline for the lost-work accounting.
	normal, err := core.Run(wl, core.Config{Machine: cfg})
	if err != nil {
		return err
	}

	run := core.Start(wl, core.Config{Machine: cfg, Scheme: v, Interval: interval})
	m := run.M
	var rep *ckpt.RecoveryReport
	m.Eng.At(sim.Time(crashAt), func() {
		m.CrashAll()
		m.Eng.After(repair, func() {
			_, rep = ckpt.Recover(m, v, run.Options, run.Program)
		})
	})
	res, err := run.Finish()
	if err != nil {
		return err
	}
	if rep == nil || !rep.Done.Opened() {
		return fmt.Errorf("bench: recovery did not complete")
	}

	total := res.Exec
	fmt.Fprintf(w, "E7: total-failure recovery under %s (synthetic ring, %s checkpoint interval)\n\n", v, interval)
	fmt.Fprintf(w, "  failure-free execution      %10.2fs\n", normal.Exec.Seconds())
	fmt.Fprintf(w, "  crash injected at           %10.2fs\n", crashAt.Seconds())
	fmt.Fprintf(w, "  recovered round             %10d\n", rep.Round)
	fmt.Fprintf(w, "  state+logs read back        %10.2f MB, %d in-transit messages restored\n",
		float64(rep.StateBytes)/1e6, rep.ChanMsgs)
	fmt.Fprintf(w, "  restart completed in        %10.3fs after repair\n",
		rep.CompletedAt.Sub(rep.StartedAt).Seconds())
	fmt.Fprintf(w, "  execution with crash        %10.2fs (vs %0.2fs crash-free)\n", total.Seconds(), normal.Exec.Seconds())
	fmt.Fprintf(w, "  results verified against the failure-free oracle: OK\n")
	fmt.Fprintf(w, "\nCoordinated rollback is 'simple and quite predictable': every process\n")
	fmt.Fprintf(w, "returns to the last committed global checkpoint (round %d).\n", rep.Round)
	return nil
}

// LoggingRecoveryDemo (E11) runs the Indep_Log extension: independent
// checkpointing with sender-based message logging, a single-node failure,
// and a recovery in which only the failed process rolls back.
func LoggingRecoveryDemo(w io.Writer, cfg par.Config, victim int, crashAt, repair sim.Duration) error {
	wl := syntheticWorkload(demoStateBytes)
	run := core.Start(wl, core.Config{Machine: cfg, Scheme: ckpt.IndepLog, Interval: 5 * sim.Second})
	m := run.M
	var rep *ckpt.NodeRecoveryReport
	m.Eng.At(sim.Time(crashAt), func() {
		m.CrashNode(victim)
		m.Eng.After(repair, func() {
			rep = ckpt.RecoverNode(m, run.World, run.Scheme, victim, run.Program)
		})
	})
	res, err := run.Finish()
	if err != nil {
		return err
	}
	if rep == nil || !rep.Done.Opened() {
		return fmt.Errorf("bench: node recovery did not complete")
	}
	st := res.Ckpt
	fmt.Fprintf(w, "E11: single-node failure under Indep_Log (sender-based message logging)\n\n")
	fmt.Fprintf(w, "  node %d crashed at           %8.2fs\n", victim, crashAt.Seconds())
	fmt.Fprintf(w, "  restored its own checkpoint  %8d (no other process rolled back)\n", rep.Index)
	fmt.Fprintf(w, "  state read back              %8.1f KB\n", float64(rep.StateBytes)/1e3)
	fmt.Fprintf(w, "  messages retransmitted       %8d from survivors' volatile logs\n", rep.Resent)
	fmt.Fprintf(w, "  peak volatile log size       %8.1f KB across all senders\n", float64(st.LogBytesPeak)/1e3)
	fmt.Fprintf(w, "  execution finished at        %8.2fs, results verified: OK\n", res.Exec.Seconds())
	fmt.Fprintf(w, "\nMessage logging removes both the domino effect and the need for any\n")
	fmt.Fprintf(w, "other process to roll back — at the cost of log memory and sequence\n")
	fmt.Fprintf(w, "headers (the trade the paper's §1 describes).\n")
	return nil
}
