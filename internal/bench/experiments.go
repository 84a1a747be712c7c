package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rdg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Experiment is one entry of the extension-experiment catalogue: what
// `chkbench -exp NAME` runs. Each entry renders its own report; the
// catalogue only says what exists, under which name, and how to launch it.
type Experiment struct {
	Name  string // the -exp name
	ID    string // "E4" … "E15": the EXPERIMENTS.md heading
	Title string // one line, for help texts
	Run   func(ctx context.Context, w io.Writer, cfg par.Config, quick bool, r *Runner) error
}

// Experiments is the catalogue, in IDENTITY.txt's manifest order. The help
// texts, the dispatcher, the identity manifest, the determinism test and the
// benchmarks all range over it.
var Experiments = []Experiment{
	{"sync", "E4", "synchronization-cost decomposition", syncCostExperiment},
	{"storage", "E5", "stable-storage overhead comparison", storageOverheadExperiment},
	{"stagger", "E8", "staggering ablation", staggerAblation},
	{"interval", "E9", "overhead vs checkpoint interval", intervalSweep},
	{"scaling", "E10", "overhead vs machine size", scalingExperiment},
	{"domino", "E6", "recovery lines and the domino effect", dominoExperiment},
	{"avail", "E12", "availability under injected faults and Poisson failures", availabilityExperiment},
	{"failover", "E15", "coordinator failover (pre-commit + election)", failoverExperiment},
	{"scale", "E14", "scaling to 1024 nodes with sharded stable storage",
		func(ctx context.Context, w io.Writer, cfg par.Config, quick bool, r *Runner) error {
			return ScaleExperimentGrid(ctx, w, cfg, ScaleGrid(quick), ScaleSchemes, r)
		}},
	{"coord", "E7", "total failure + coordinated rollback-recovery", coordRecoveryDemo},
}

// ExperimentNames lists the catalogue's -exp names, in catalogue order.
func ExperimentNames() []string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.Name
	}
	return names
}

// ExperimentHelp renders the catalogue for a flag's help text, one
// "NAME  ID  title" line per entry.
func ExperimentHelp() string {
	var b strings.Builder
	for _, e := range Experiments {
		fmt.Fprintf(&b, "\n  %-9s %-4s %s", e.Name, e.ID, e.Title)
	}
	return b.String()
}

// ErrUnknownExperiment is what RunExperiment's error wraps when no catalogue
// entry has the name: command-line misuse, as opposed to a failing cell.
var ErrUnknownExperiment = errors.New("unknown experiment")

// RunExperiment runs the catalogue entry called name, fanning its independent
// cells out over r's worker pool. Cancelling ctx stops the experiment after
// its in-flight cells; no partial report is written.
func RunExperiment(ctx context.Context, w io.Writer, name string, cfg par.Config, quick bool, r *Runner) error {
	for _, e := range Experiments {
		if e.Name == name {
			return e.Run(ctx, w, cfg, quick, r)
		}
	}
	return fmt.Errorf("bench: %w %q: want one of %s", ErrUnknownExperiment, name, strings.Join(ExperimentNames(), ", "))
}

// syncCostExperiment (E4) isolates the synchronization cost of coordinated
// checkpointing by sweeping the checkpoint state size down to zero: the
// overhead at size zero is pure protocol (request, markers, acks, commit).
// The paper's central claim is that this cost is negligible against the
// state-writing cost.
func syncCostExperiment(ctx context.Context, w io.Writer, cfg par.Config, _ bool, r *Runner) error {
	// Zero the process-image constant so the first row isolates the pure
	// protocol cost (request, markers, acks, commit, one small write: the
	// ring's snapshot in its record framing).
	cfg.CkptImageBytes = 0
	sizes := []int{0, 10_000, 100_000, 500_000, 1_000_000}
	wls := make([]apps.Workload, len(sizes))
	for i, stateBytes := range sizes {
		wls[i] = syntheticWorkload(stateBytes)
	}
	rows, err := r.MeasureRows(ctx, cfg, wls, []ckpt.Variant{ckpt.CoordNB}, 3)
	if err != nil {
		return err
	}
	t := trace.NewTable("E4: coordinated checkpoint cost decomposition (Coord_NB, synthetic ring workload)",
		"State/node", "Overhead/ckpt", "Protocol msgs/ckpt", "Sync share").Align(1, 2, 3)
	for i, stateBytes := range sizes {
		over, st := rows[i].PerCkpt(ckpt.CoordNB), rows[i].Stats[ckpt.CoordNB]
		share := "-"
		if stateBytes > 0 {
			// Compare against the zero-state run printed in the first row.
			share = fmt.Sprintf("see row 1 vs %.3fs", over.Seconds())
		}
		t.Rowf(fmt.Sprintf("%d B", stateBytes), fmt.Sprintf("%.3fs", over.Seconds()),
			fmt.Sprintf("%.0f", float64(st.ProtoMsgs)/float64(st.Rounds)), share)
	}
	t.Write(w)
	fmt.Fprintln(w, "\nThe zero-state row is the pure synchronization cost; the paper found it negligible.")
	return nil
}

// storageOverheadExperiment (E5) compares the stable-storage footprint of
// coordinated vs independent checkpointing: coordinated garbage-collects all
// but the last committed round, independent retains every checkpoint unless
// a reclamation algorithm runs.
func storageOverheadExperiment(ctx context.Context, w io.Writer, cfg par.Config, quick bool, r *Runner) error {
	wl := apps.SORWorkload(apps.DefaultSOR(pick(quick, 128, 512), pick(quick, 40, 100)))
	interval := sim.Duration(pick(quick, 2, 20)) * sim.Second

	// The uncoordinated schemes run a second time with active garbage
	// collection (Wang et al.): the dependency analysis reclaims checkpoints
	// behind the recovery line. CIC's recovery line sits at the latest
	// checkpoints, so its collector reclaims everything older, whereas
	// Indep's line can lag arbitrarily.
	rows := []struct {
		v  ckpt.Variant
		gc bool
	}{
		{ckpt.CoordNB, false}, {ckpt.CoordNBMS, false}, {ckpt.Indep, false}, {ckpt.IndepM, false}, {ckpt.CIC, false},
		{ckpt.Indep, true}, {ckpt.CIC, true},
	}
	cells := make([]Cell, len(rows))
	for i, row := range rows {
		cells[i] = Cell{App: wl.Name, Scheme: row.v.String()}
		if row.gc {
			cells[i].Scheme += "+GC"
		}
	}
	type out struct {
		res core.Result
		gc  *rdg.GarbageCollector // nil on the rows without one
	}
	outs, err := Cells(ctx, r, cells, func(_ context.Context, i int, c Cell) (o out, err error) {
		run := core.Start(wl, core.Config{Machine: cfg, Scheme: rows[i].v, Interval: interval})
		if rows[i].gc {
			o.gc = rdg.AttachGC(run.M, run.Scheme, interval)
		}
		if o.res, err = run.Finish(); err != nil {
			return o, err
		}
		r.Prog.logf("%s: peak %d bytes", c.Name(), o.res.StoragePeak)
		return o, nil
	})
	if err != nil {
		return err
	}

	t := trace.NewTable("E5: stable-storage overhead (SOR, checkpoint every interval)",
		"Scheme", "Ckpts taken", "Peak bytes", "Files at end", "GC reclaims").Align(1, 2, 3, 4)
	for i, o := range outs {
		reclaims := "-"
		if o.gc != nil {
			reclaims = fmt.Sprintf("%d (%.1f MB)", o.gc.Reclaims, float64(o.gc.Freed)/1e6)
		}
		t.Rowf(cells[i].Scheme, o.res.Ckpt.Checkpoints, o.res.StoragePeak, o.res.FilesAtEnd, reclaims)
	}
	t.Write(w)
	fmt.Fprintln(w, "\nCoordinated checkpointing double-buffers two rounds regardless of run")
	fmt.Fprintln(w, "length; independent checkpointing retains every generation, and even the")
	fmt.Fprintln(w, "recovery-line garbage collector can reclaim only what falls behind the")
	fmt.Fprintln(w, "line — the paper's §4 storage argument. Communication-induced")
	fmt.Fprintln(w, "checkpointing keeps the line at the latest generation, so its collector")
	fmt.Fprintln(w, "reclaims everything older.")
	return nil
}

// staggerAblation (E8) separates the two optimizations the paper combines in
// NBMS: staggering only helps together with main-memory checkpointing.
func staggerAblation(ctx context.Context, w io.Writer, cfg par.Config, quick bool, r *Runner) error {
	wl := apps.SORWorkload(apps.DefaultSOR(pick(quick, 128, 512), pick(quick, 40, 100)))
	rows, err := r.MeasureRows(ctx, cfg, []apps.Workload{wl},
		[]ckpt.Variant{ckpt.CoordNB, ckpt.CoordNBM, ckpt.CoordNBMS, ckpt.CoordB}, 3)
	if err != nil {
		return err
	}
	rr := rows[0]
	t := trace.NewTable("E8: optimization ablation (SOR)",
		"Variant", "Overhead %", "Technique").Align(1)
	t.Rowf("Coord_B", rr.Percent(ckpt.CoordB), "blocking baseline")
	t.Rowf("Coord_NB", rr.Percent(ckpt.CoordNB), "non-blocking protocol")
	t.Rowf("Coord_NBM", rr.Percent(ckpt.CoordNBM), "+ main-memory checkpointing")
	t.Rowf("Coord_NBMS", rr.Percent(ckpt.CoordNBMS), "+ checkpoint staggering")
	t.Write(w)
	return nil
}

// intervalSweep (E9) measures overhead as a function of the checkpoint
// interval and compares with Young's first-order model
// (overhead ≈ C/I where C is the cost of one checkpoint).
func intervalSweep(ctx context.Context, w io.Writer, cfg par.Config, quick bool, r *Runner) error {
	wl := apps.SORWorkload(apps.DefaultSOR(pick(quick, 128, 384), pick(quick, 60, 150)))
	base, err := r.normal(ctx, cfg, wl)
	if err != nil {
		return err
	}
	divs := []int{16, 8, 4, 2}
	cells := make([]Cell, len(divs))
	for i, div := range divs {
		cells[i] = Cell{App: wl.Name, Scheme: "Coord_NBMS", Rep: div}
	}
	results, err := Cells(ctx, r, cells, func(_ context.Context, i int, _ Cell) (core.Result, error) {
		return core.Run(wl, core.Config{Machine: cfg, Scheme: ckpt.CoordNBMS, Interval: base.Exec / sim.Duration(divs[i]+1)})
	})
	if err != nil {
		return err
	}
	t := trace.NewTable("E9: overhead vs checkpoint interval (SOR, Coord_NBMS)",
		"Interval", "Ckpts", "Overhead %", "Young C/I %").Align(1, 2, 3)
	var costPerCkpt float64 // estimated from the densest run
	for i, div := range divs {
		interval := base.Exec / sim.Duration(div+1)
		res := results[i]
		over := float64(res.Exec-base.Exec) / float64(base.Exec) * 100
		if i == 0 && res.Ckpt.Rounds > 0 {
			costPerCkpt = float64(res.Exec-base.Exec) / float64(res.Ckpt.Rounds)
		}
		model := costPerCkpt / float64(interval) * 100
		t.Rowf(fmt.Sprintf("%.0fs", interval.Seconds()), res.Ckpt.Rounds, over, model)
		r.Prog.logf("interval %v: %d rounds, %.2f%%", interval, res.Ckpt.Rounds, over)
	}
	t.Write(w)
	return nil
}

// scalingExperiment (E10) holds per-node state constant and grows the mesh:
// the stable-storage bottleneck makes coordinated non-staggered overhead
// grow with machine size while NBMS stays flat per node.
func scalingExperiment(ctx context.Context, w io.Writer, cfg par.Config, _ bool, r *Runner) error {
	dims := [][2]int{{2, 1}, {2, 2}, {4, 2}, {4, 4}, {8, 4}}
	cells := make([]Cell, len(dims))
	for i, d := range dims {
		cells[i] = Cell{App: fmt.Sprintf("RING-%dx%d", d[0], d[1]), Scheme: "E10"}
	}
	meshRows, err := Cells(ctx, r, cells, func(ctx context.Context, i int, _ Cell) (Row, error) {
		cc := cfg
		// E10 sets its own machine: the mesh and one storage server replace
		// any -topo/-servers (a 2-node cell cannot attach more than two).
		cc.Fabric.MeshW, cc.Fabric.MeshH = dims[i][0], dims[i][1]
		cc.StorageServers = 1
		wl := syntheticWorkload(128_000)
		rows, err := r.MeasureRows(ctx, cc, []apps.Workload{wl},
			[]ckpt.Variant{ckpt.CoordNB, ckpt.Indep, ckpt.CoordNBMS}, 2)
		if err != nil {
			return Row{}, err
		}
		return rows[0], nil
	})
	if err != nil {
		return err
	}
	t := trace.NewTable("E10: overhead per checkpoint vs machine size (synthetic ring, 128 KB/node)",
		"Nodes", "NB", "Indep", "NBMS").Align(1, 2, 3)
	for i, d := range dims {
		rr := meshRows[i]
		t.Rowf(d[0]*d[1],
			fmt.Sprintf("%.2fs", rr.PerCkpt(ckpt.CoordNB).Seconds()),
			fmt.Sprintf("%.2fs", rr.PerCkpt(ckpt.Indep).Seconds()),
			fmt.Sprintf("%.2fs", rr.PerCkpt(ckpt.CoordNBMS).Seconds()))
	}
	t.Write(w)
	return nil
}

func pick[T any](quick bool, q, full T) T {
	if quick {
		return q
	}
	return full
}
