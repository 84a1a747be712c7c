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
	"repro/internal/rdg"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// availabilityExperiment (E12) measures what checkpointing buys when things
// actually fail. Every cell runs the workload live through the
// fault-injection subsystem — transient storage errors, short server
// outages, and a lossy interconnect — which exercises the hardened paths
// (retry/backoff, 2PC abort-and-retry, checkpoint skipping, ack/retransmit)
// while the workload's oracle still verifies the final answer. The committed
// checkpoint records of that degraded run then feed a failure replay: node
// crashes drawn from a Poisson process at each MTTF roll the run back to its
// recovery line (last committed round for coordinated; the rollback-
// propagation line over the dependency graph for independent and CIC), and
// the expected completion time and work lost per failure fall out.
//
// The replay is first-order in the paper's own style: re-execution after a
// rollback proceeds failure-free at original speed, repair takes a fixed
// delay, and no failures strike during repair. Checkpoint timestamps stand
// in for the state they captured. Each cell's fault plan derives from its
// coordinates (Cell.Seed).
func availabilityExperiment(ctx context.Context, w io.Writer, cfg par.Config, quick bool, r *Runner) error {
	wl := apps.SORWorkload(apps.DefaultSOR(pick(quick, 128, 512), pick(quick, 40, 100)))
	schemes := []ckpt.Variant{
		ckpt.CoordNB, ckpt.CoordNBInc,
		ckpt.Indep, ckpt.IndepInc,
		ckpt.CIC, ckpt.CICInc,
	}
	divs := pick(quick, []int{4}, []int{8, 4})
	mttfs := pick(quick,
		[]sim.Duration{20 * sim.Second, 60 * sim.Second},
		[]sim.Duration{30 * sim.Second, 120 * sim.Second, 480 * sim.Second})
	const repair = 2 * sim.Second

	// The failure-free baseline fixes the checkpoint intervals, as in every
	// other experiment.
	baseExec, err := r.normal(ctx, cfg, wl)
	if err != nil {
		return err
	}

	type availRow struct {
		scheme   ckpt.Variant
		interval sim.Duration
		mttf     sim.Duration
	}
	rows := make([]availRow, 0, len(schemes)*len(divs)*len(mttfs))
	cells := make([]Cell, 0, cap(rows))
	for _, v := range schemes {
		for _, div := range divs {
			for mi, mttf := range mttfs {
				rows = append(rows, availRow{scheme: v, interval: baseExec / sim.Duration(div+1), mttf: mttf})
				cells = append(cells, Cell{App: fmt.Sprintf("%s-i%d", wl.Name, div), Scheme: v.String(), Rep: mi})
			}
		}
	}
	reps, err := Cells(ctx, r, cells, func(_ context.Context, i int, c Cell) (availReport, error) {
		rep, err := runAvail(wl, cfg, rows[i].scheme, rows[i].interval, rows[i].mttf, repair, c.Seed())
		if err != nil {
			return rep, err
		}
		r.Prog.logf("%-24s MTTF %4.0fs: %d failures, completion %.1fs", c.Name(),
			rows[i].mttf.Seconds(), rep.Failures, rep.Completion.Seconds())
		return rep, nil
	})
	if err != nil {
		return err
	}

	t := trace.NewTable(fmt.Sprintf("E12: availability under faults (%s, repair %.0fs)", wl.Name, repair.Seconds()),
		"Scheme", "Interval", "MTTF", "Ckpts", "Abort/Skip", "Retries", "Retrans", "Failures", "Work lost", "Completion").
		Align(1, 2, 3, 4, 5, 6, 7, 8, 9)
	for i, row := range rows {
		rep := reps[i]
		t.Rowf(row.scheme.String(),
			fmt.Sprintf("%.1fs", row.interval.Seconds()),
			fmt.Sprintf("%.0fs", row.mttf.Seconds()),
			rep.Checkpoints,
			fmt.Sprintf("%d/%d", rep.RoundsAborted, rep.SkippedCkpts),
			rep.StorageRetries,
			rep.Retransmits,
			rep.Failures,
			fmt.Sprintf("%.2fs", rep.WorkLost.Seconds()),
			fmt.Sprintf("%.1fs", rep.Completion.Seconds()))
	}
	t.Write(w)
	fmt.Fprintln(w, "\nWork lost is the mean per-rank rollback per failure. Coordinated rolls")
	fmt.Fprintln(w, "back only to the last committed round; independent checkpointing loses")
	fmt.Fprintln(w, "strictly more as the MTTF shrinks because its recovery line lags behind")
	fmt.Fprintln(w, "the newest checkpoints, and CIC's induced checkpoints hold the line at")
	fmt.Fprintln(w, "the latest consistent cut without coordination messages.")
	return nil
}

// availReport is one cell's measurements: the degraded live run's hardening
// counters plus the failure replay's availability figures.
type availReport struct {
	Checkpoints    int
	RoundsAborted  int
	SkippedCkpts   int
	StorageRetries int64
	Retransmits    int64
	Failures       int
	WorkLost       sim.Duration // mean per-rank rollback per failure
	Completion     sim.Duration // expected wall time to finish, failures included
}

// runAvail executes one availability cell: the live faulted run, then the
// Poisson failure replay over its committed checkpoint records.
func runAvail(wl apps.Workload, cfg par.Config, v ckpt.Variant, interval, mttf, repair sim.Duration, seed uint64) (availReport, error) {
	// Derive independent streams for the live fault plan and the crash
	// replay so adding replay draws never perturbs the live run.
	root := rng.New(seed)
	planSeed := root.Uint64()
	crashes := rng.New(root.Uint64())

	// Outage windows last about as long as the full retry budget covers
	// (~0.75–1.5s of capped backoff), so some writes ride an outage out and
	// some exhaust their retries — both the retry and the abort/skip paths
	// show up in the table.
	plan := &faults.Plan{
		Seed:    planSeed,
		Horizon: 6 * interval * 8, // generously past the degraded run's end
		Storage: faults.StorageFaults{
			ErrProb:    0.01,
			OutageMTTF: 24 * interval,
			OutageDur:  sim.Second,
		},
		Links: faults.LinkFaults{
			DropProb:  0.002,
			DelayProb: 0.01,
			DelayMax:  2 * sim.Millisecond,
		},
	}
	res, err := core.Run(wl, core.Config{
		Machine:  cfg,
		Scheme:   v,
		Interval: interval,
		Faults:   plan,
	})
	if err != nil {
		return availReport{}, err
	}

	rep := availReport{
		Checkpoints:    res.Ckpt.Checkpoints,
		RoundsAborted:  res.Ckpt.RoundsAborted,
		SkippedCkpts:   res.Ckpt.SkippedCkpts,
		StorageRetries: res.Faults.StorageRetries,
		Retransmits:    res.Faults.Retransmits,
	}

	// Failure replay over the committed records. Progress is virtual work
	// completed (0..T); each failure rolls progress back to the recovery
	// line's restore times and charges the repair delay.
	n := cfg.Fabric.Nodes()
	T := res.Exec
	var progress, wall, lost sim.Duration
	const maxFailures = 100_000
	for progress < T {
		gap := sim.Duration(crashes.ExpFloat64() * float64(mttf))
		if progress+gap >= T {
			wall += T - progress
			break
		}
		progress += gap
		wall += gap + repair
		rep.Failures++
		if rep.Failures >= maxFailures {
			// The configuration cannot finish (rollbacks outpace progress);
			// report the divergence rather than looping forever.
			wall = sim.Duration(1<<62 - 1)
			break
		}
		restore := restoreTimes(v, n, res.Records, sim.Time(0).Add(progress))
		var minRestore sim.Duration = 1<<62 - 1
		var sum sim.Duration
		for _, at := range restore {
			back := sim.Duration(at)
			if back > progress {
				back = progress // a checkpoint never restores future work
			}
			sum += progress - back
			if back < minRestore {
				minRestore = back
			}
		}
		lost += sum / sim.Duration(n)
		progress = minRestore
	}
	rep.Completion = wall
	if rep.Failures > 0 {
		rep.WorkLost = lost / sim.Duration(rep.Failures)
	}
	return rep, nil
}

// restoreTimes returns, per rank, the virtual time of the checkpoint each
// rank restores after a failure at time t. Coordinated restores the newest
// round all ranks had made durable before t (zero rollback beyond the last
// committed round); independent and CIC restore their rollback-propagation
// recovery line.
func restoreTimes(v ckpt.Variant, n int, recs []ckpt.Record, t sim.Time) []sim.Time {
	out := make([]sim.Time, n)
	if v.Coordinated() {
		byRound := map[int][]ckpt.Record{}
		best := 0
		for _, rec := range recs {
			if rec.At >= t {
				continue
			}
			byRound[rec.Index] = append(byRound[rec.Index], rec)
			if len(byRound[rec.Index]) == n && rec.Index > best {
				best = rec.Index
			}
		}
		for _, rec := range byRound[best] {
			out[rec.Rank] = rec.At
		}
		return out
	}
	g := rdg.FromRecordsAt(n, recs, t)
	line := g.RecoveryLine()
	for rank, idx := range line {
		out[rank] = g.CheckpointTime(rdg.CheckpointID{Rank: rank, Index: idx})
	}
	return out
}
