package bench

import (
	"context"
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/trace"
)

// KillPhases is the coordinator-kill axis shared by the E15 experiment and
// the correctness oracle's failover sweep: every window of the coordinated
// round in announcement order. The plain coordinated variants never announce
// "precommit" — only the fault-tolerant pair runs the third phase — so both
// consumers drop that phase for them.
var KillPhases = []string{"round", "acks", "precommit", "meta", "commit"}

// failoverExperiment (E15) measures what the three-phase commit and the
// coordinator election buy when the coordinator itself dies. Each cell kills
// rank 0 inside one window of the checkpoint round — while the round is
// announced, after all acks, after the pre-commit barrier, after the commit
// record lands, after the commit broadcast — lets the failure detector and
// election settle, then crashes the survivors and recovers the machine from
// stable storage through the scheme's own protocol, verifying the final
// results against the workload's oracle. The fault-tolerant pair resolves
// the interrupted round (completing it when any survivor pre-committed,
// aborting it otherwise) before the full restart; plain Coord_NB is the
// baseline that can only stall until that restart.
//
// A second, analytic table converts the measured per-crash cost into
// steady-state availability at a range of coordinator MTTFs, in the paper's
// first-order style: failures arrive at rate 1/MTTF and each costs the mean
// measured crash-to-recovery overhead.
func failoverExperiment(ctx context.Context, w io.Writer, cfg par.Config, quick bool, r *Runner) error {
	wl := syntheticWorkload(pick(quick, 100_000, 200_000))
	schemes := []ckpt.Variant{ckpt.CoordNB, ckpt.CoordNBFT, ckpt.CoordNBFTInc}

	// The no-checkpointing baseline fixes the interval, as everywhere else.
	baseExec, err := r.normal(ctx, cfg, wl)
	if err != nil {
		return err
	}
	interval := baseExec / 5

	// Fault-free runs of each scheme anchor the per-crash cost: the kill
	// cells are compared against the same scheme running undisturbed, so the
	// overhead column isolates the crash, not the checkpointing.
	ffCells := make([]Cell, len(schemes))
	for i, v := range schemes {
		ffCells[i] = Cell{App: wl.Name, Scheme: v.String()}
	}
	ffExec, err := Cells(ctx, r, ffCells, func(_ context.Context, i int, _ Cell) (sim.Duration, error) {
		res, err := core.Run(wl, core.Config{Machine: cfg, Scheme: schemes[i], Interval: interval})
		return res.Exec, err
	})
	if err != nil {
		return err
	}

	type failoverRow struct {
		scheme ckpt.Variant
		si     int // index into schemes/ffExec
		phase  string
	}
	rows := make([]failoverRow, 0, len(schemes)*len(KillPhases))
	cells := make([]Cell, 0, cap(rows))
	for si, v := range schemes {
		for pi, ph := range KillPhases {
			if ph == "precommit" && !v.ThreePhase {
				continue // window the plain variants never announce
			}
			rows = append(rows, failoverRow{scheme: v, si: si, phase: ph})
			cells = append(cells, Cell{App: wl.Name, Scheme: v.String(), Rep: pi})
		}
	}
	reps, err := Cells(ctx, r, cells, func(_ context.Context, i int, c Cell) (failoverReport, error) {
		rep, err := runFailover(wl, cfg, rows[i].scheme, interval, rows[i].phase, c.Seed())
		if err != nil {
			return rep, err
		}
		r.Prog.logf("%-24s kill@%-9s %8.2fs -> %s, round %d", c.Name(), rows[i].phase,
			rep.CrashAt.Seconds(), rep.Resolution, rep.Round)
		return rep, nil
	})
	if err != nil {
		return err
	}

	t := trace.NewTable(fmt.Sprintf("E15: coordinator failover (synthetic ring, interval %.1fs)", interval.Seconds()),
		"Scheme", "Kill window", "Rounds@crash", "Resolution", "Recovered rd", "Elections", "Exec", "Crash cost", "Avail %").
		Align(2, 4, 5, 6, 7, 8)
	cost := make([]sim.Duration, len(schemes))
	nkill := make([]int, len(schemes))
	for i, row := range rows {
		rep := reps[i]
		over := rep.Exec - ffExec[row.si]
		cost[row.si] += over
		nkill[row.si]++
		t.Rowf(row.scheme.String(), row.phase, rep.RoundsAtCrash, rep.Resolution,
			rep.Round, rep.Elections,
			fmt.Sprintf("%.2fs", rep.Exec.Seconds()),
			fmt.Sprintf("%.2fs", over.Seconds()),
			fmt.Sprintf("%.1f", float64(ffExec[row.si])/float64(rep.Exec)*100))
	}
	t.Write(w)

	mttfs := pick(quick,
		[]sim.Duration{30 * sim.Second, 120 * sim.Second},
		[]sim.Duration{30 * sim.Second, 120 * sim.Second, 480 * sim.Second})
	cols := make([]string, 0, 1+len(mttfs))
	cols = append(cols, "Scheme")
	aligns := make([]int, 0, len(mttfs)+1)
	for i, mttf := range mttfs {
		cols = append(cols, fmt.Sprintf("MTTF %.0fs", mttf.Seconds()))
		aligns = append(aligns, i+1)
	}
	cols = append(cols, "Mean crash cost")
	aligns = append(aligns, len(mttfs)+1)
	t2 := trace.NewTable("E15: analytic availability vs coordinator MTTF (failures cost the mean measured overhead)",
		cols...).Align(aligns...)
	for si, v := range schemes {
		mean := cost[si] / sim.Duration(nkill[si])
		vals := make([]any, 0, len(cols)-1)
		vals = append(vals, v.String())
		for _, mttf := range mttfs {
			vals = append(vals, fmt.Sprintf("%.2f%%", float64(mttf)/float64(mttf+mean)*100))
		}
		vals = append(vals, fmt.Sprintf("%.2fs", mean.Seconds()))
		t2.Rowf(vals...)
	}
	t2.Write(w)
	fmt.Fprintln(w, "\nCrash cost is execution time beyond the same scheme's fault-free run:")
	fmt.Fprintln(w, "work lost to the rollback plus detection, election and restart delays.")
	fmt.Fprintln(w, "The fault-tolerant pair resolves the interrupted round before the")
	fmt.Fprintln(w, "restart — a kill before the pre-commit barrier aborts it (no partial")
	fmt.Fprintln(w, "durable state), a kill after completes it under the elected successor —")
	fmt.Fprintln(w, "so the recovered round never regresses past what survivors had acked.")
	return nil
}

// failoverReport is one coordinator-kill cell's measurements.
type failoverReport struct {
	CrashAt       sim.Time     // when the targeted kill fired
	RoundsAtCrash int          // rounds committed before the coordinator died
	Resolution    string       // how the interrupted round ended: adopted, aborted, none in flight, stalled
	Round         int          // round the full recovery restored
	Elections     int          // takeovers the failure detector ran
	Exec          sim.Duration // total execution, crash and recovery included
}

// runFailover executes one E15 cell: run the workload under the scheme, kill
// rank 0 inside the named protocol window, let the election (if the scheme
// has one) resolve the interrupted round, then crash the survivors, recover
// the machine from stable storage, and verify the final results against the
// workload's oracle.
func runFailover(wl apps.Workload, cfg par.Config, v ckpt.Variant, interval sim.Duration, phase string, seed uint64) (failoverReport, error) {
	run := core.Start(wl, core.Config{Machine: cfg, Scheme: v, Interval: interval})
	m, sch := run.M, run.Scheme

	const repair = 500 * sim.Millisecond
	var out failoverReport
	var rep *ckpt.RecoveryReport
	plan := faults.Plan{
		Seed:    seed,
		Targets: []faults.TargetedCrash{{Rank: 0, Phase: phase}},
		OnCrash: func(node int) {
			out.CrashAt = m.Eng.Now()
			out.RoundsAtCrash = sch.Stats().Rounds
			m.CrashNode(node)
			// The settle window gives the failure detector time to suspect,
			// elect and resolve before the survivors are crashed for the full
			// recovery; plain Coord_NB just stalls through it, which is the
			// point of the comparison.
			m.Eng.After(ckpt.FailoverSettle, func() {
				st := sch.Stats()
				out.Elections = st.Elections
				switch {
				case st.RoundsAdopted > 0:
					out.Resolution = "adopted"
				case st.RoundsAborted > 0:
					out.Resolution = "aborted"
				case v.ThreePhase:
					out.Resolution = "none in flight"
				default:
					out.Resolution = "stalled"
				}
				m.CrashAll()
				m.Eng.After(repair, func() {
					_, rep = ckpt.Recover(m, v, run.Options, run.Program)
				})
			})
		},
	}
	plan.Arm(m)
	res, err := run.Finish()
	if err != nil {
		return out, err
	}
	if out.CrashAt == 0 {
		return out, fmt.Errorf("bench: kill at %q never fired under %s", phase, v)
	}
	if rep == nil || !rep.Done.Opened() {
		return out, fmt.Errorf("bench: recovery did not complete after kill at %q under %s", phase, v)
	}
	out.Round = rep.Round
	out.Exec = res.Exec
	return out, nil
}
