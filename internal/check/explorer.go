package check

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/ckpt"
	"repro/internal/faults"
	"repro/internal/par"
	"repro/internal/sim"
)

// ExplorerSchemes is the full scheme matrix the explorer sweeps: every
// variant of the three protocol families the simulator implements (the
// paper's Table 1 columns plus the CIC family), including each family's
// incremental variant and the fault-tolerant coordinated pair. The crash
// strata fall at arbitrary points of the run, so incremental cells routinely
// crash between a base and its dependent deltas — the chain-reassembly path
// recovery then exercises — and failover cells crash with the failure
// detector and the pre-commit phase live.
var ExplorerSchemes = []ckpt.Variant{
	ckpt.CoordNB, ckpt.CoordNBM, ckpt.CoordNBMS, ckpt.CoordNBInc,
	ckpt.CoordNBFT, ckpt.CoordNBFTInc,
	ckpt.Indep, ckpt.IndepM, ckpt.IndepInc,
	ckpt.CIC, ckpt.CICM, ckpt.CICInc,
}

// SweepConfig parameterizes one explorer sweep over the cell lattice
// apps x schemes x crash strata x seeds.
type SweepConfig struct {
	Cfg      par.Config
	Apps     []apps.Workload
	Schemes  []ckpt.Variant
	Points   int // crash strata per (app, scheme)
	Seeds    int // seeds per stratum
	Parallel int // worker pool size; 0 means GOMAXPROCS
	Prog     bench.Progress

	// FaultPlan, when set, is copied onto every cell spec: each cell arms
	// the plan it returns for (cell seed, baseline exec) on its machine, on
	// top of the oracle's own stratified crash. The sharded-storage sweep
	// uses it to take individual storage servers down mid-run.
	FaultPlan func(seed uint64, horizon sim.Duration) *faults.Plan

	// KillPhases, when non-empty, replaces the crash-stratum axis with a
	// coordinator-kill axis: each cell kills rank 0 inside one named
	// protocol window (see CellSpec.KillPhase) instead of crashing every
	// node at a stratified instant. Phases a scheme never announces are
	// skipped per scheme — the plain coordinated variants have no
	// "precommit" window.
	KillPhases []string
}

// QuickSweep is the CI matrix: 2 workloads x 12 schemes x 4 crash strata x 4
// seeds = 384 cells, every scheme family crashed in every quarter of its
// run. The workloads are deliberately small — the sweep's power comes from
// the number of (scheme, crash point, seed) combinations, not from long
// runs.
func QuickSweep(cfg par.Config) SweepConfig {
	return SweepConfig{
		Cfg: cfg,
		Apps: []apps.Workload{
			bench.RingWorkload(256, 40, 2e5),
			bench.AsyncWorkload(40, 256),
		},
		Schemes: ExplorerSchemes,
		Points:  4,
		Seeds:   4,
	}
}

// FullSweep is the full matrix: more workloads (including a larger state
// footprint, which shifts checkpoint timing and storage contention), more
// strata, more seeds — 3 workloads x 12 schemes x 6 strata x 8 seeds.
func FullSweep(cfg par.Config) SweepConfig {
	return SweepConfig{
		Cfg: cfg,
		Apps: []apps.Workload{
			bench.RingWorkload(256, 40, 2e5),
			bench.RingWorkload(60_000, 80, 4e5),
			bench.AsyncWorkload(60, 2048),
		},
		Schemes: ExplorerSchemes,
		Points:  6,
		Seeds:   8,
	}
}

// ShardSweep is the sharded-storage matrix: the ring workload on the default
// mesh with stable storage striped over 4 servers, one scheme per protocol
// family, and a fault plan that takes each storage server down for a window
// staggered across the run — so every family is exercised saving to and
// recovering from the correct shard while some shard is unavailable (the
// retry client rides the outage out, and the shard.placement invariant
// verifies no file ever lands on, or is read from, the wrong server). The
// workload's state size differs from QuickSweep's so cell names stay unique
// across the combined lattices. Each family runs its plain and its
// incremental variant, so delta chains are also reassembled across a shard
// outage. 1 app x 6 schemes x 4 strata x 2 seeds = 48 cells.
func ShardSweep(cfg par.Config) SweepConfig {
	cfg.StorageServers = 4
	return SweepConfig{
		Cfg: cfg,
		Apps: []apps.Workload{
			bench.RingWorkload(512, 40, 2e5),
		},
		Schemes: []ckpt.Variant{
			ckpt.CoordNB, ckpt.CoordNBInc,
			ckpt.Indep, ckpt.IndepInc,
			ckpt.CIC, ckpt.CICInc,
		},
		Points: 4,
		Seeds:  2,
		FaultPlan: func(seed uint64, horizon sim.Duration) *faults.Plan {
			// One outage per server, 1/16 of the baseline run long, starting
			// at staggered fractions of it — short enough that the default
			// retry policy's backoff schedule always outlasts the window.
			outs := make([]faults.ServerOutage, 4)
			for s := range outs {
				outs[s] = faults.ServerOutage{
					Server: s,
					Window: faults.Window{
						At:  sim.Time(0).Add(horizon / 6 * sim.Duration(s+1)),
						Dur: horizon / 16,
					},
				}
			}
			return &faults.Plan{
				Seed:    seed,
				Horizon: horizon,
				Storage: faults.StorageFaults{ServerOutages: outs},
			}
		},
	}
}

// FailoverPhases is the coordinator-kill axis, shared with the E15
// experiment: every window of the coordinated round in announcement order.
// The plain variants never announce "precommit" (only the fault-tolerant
// pair runs the third phase), so the lattice drops that phase for them.
var FailoverPhases = bench.KillPhases

// FailoverSweep is the coordinator-crash matrix: the ring workload under the
// fault-tolerant coordinated pair plus plain Coord_NB as the
// recovery-through-full-restart baseline, rank 0 killed inside every
// protocol window, two seeds jittering the kill to different depths of each
// window. For the failover schemes every cell must see the interrupted
// round either completed by the elected successor or aborted with no
// partial durable state, and the recovered run must reproduce the
// fault-free baseline byte for byte. The workload's iteration count differs
// from the other sweeps' rings so cell names stay unique across the
// combined lattices. 1 app x (5 + 5 + 4) scheme-phase rows x 2 seeds = 28
// cells.
func FailoverSweep(cfg par.Config) SweepConfig {
	return SweepConfig{
		Cfg: cfg,
		Apps: []apps.Workload{
			bench.RingWorkload(384, 40, 2e5),
		},
		Schemes: []ckpt.Variant{
			ckpt.CoordNBFT, ckpt.CoordNBFTInc, ckpt.CoordNB,
		},
		KillPhases: FailoverPhases,
		Seeds:      2,
	}
}

// SweepReport summarizes a completed sweep.
type SweepReport struct {
	Cells     int   // cells executed cleanly
	Checks    int64 // individual invariant assertions across all cells
	Recovered int64 // cells that actually crashed and recovered
}

// Cells materializes the sweep's cell lattice. The bench.Cell identity
// (app, scheme, rep) is the unit of reproducibility: Rep encodes (stratum,
// seed ordinal) and bench.Cell.Seed derives the cell's RNG seed from the
// identity alone, so any failing cell reruns bit-identically from its
// printed name.
func (cfg SweepConfig) Cells() ([]bench.Cell, []CellSpec) {
	var cells []bench.Cell
	var specs []CellSpec
	for _, wl := range cfg.Apps {
		for _, v := range cfg.Schemes {
			if len(cfg.KillPhases) > 0 {
				// Coordinator-kill lattice: Rep encodes (phase ordinal, seed
				// ordinal) so a cell name still replays bit-identically.
				for pi, phase := range cfg.KillPhases {
					if phase == "precommit" && !v.ThreePhase {
						continue // window the plain variants never announce
					}
					for s := 0; s < cfg.Seeds; s++ {
						cells = append(cells, bench.Cell{App: wl.Name, Scheme: v.String(), Rep: pi*cfg.Seeds + s})
						specs = append(specs, CellSpec{Workload: wl, Scheme: v, KillPhase: phase, FaultPlan: cfg.FaultPlan})
					}
				}
				continue
			}
			for point := 0; point < cfg.Points; point++ {
				for s := 0; s < cfg.Seeds; s++ {
					cells = append(cells, bench.Cell{App: wl.Name, Scheme: v.String(), Rep: point*cfg.Seeds + s})
					specs = append(specs, CellSpec{Workload: wl, Scheme: v, Point: point, Points: cfg.Points, FaultPlan: cfg.FaultPlan})
				}
			}
		}
	}
	return cells, specs
}

// Spec resolves a cell name of the form "APP/SCHEME#REP" (as printed in
// failure reports) back into its CellSpec for single-cell reproduction.
func (cfg SweepConfig) Spec(name string) (bench.Cell, CellSpec, error) {
	cells, specs := cfg.Cells()
	for i, c := range cells {
		if c.Name() == name {
			spec := specs[i]
			spec.Seed = c.Seed()
			return c, spec, nil
		}
	}
	return bench.Cell{}, CellSpec{}, fmt.Errorf("check: no cell named %q in this sweep", name)
}

// CellError is the typed failure Sweep returns: the failing cell's identity
// and seed survive the runner's message wrapping (errors.As through the %w
// chain), so drivers can persist them — the CI failing-seed artifact —
// without parsing the message back apart.
type CellError struct {
	Cell bench.Cell
	Seed uint64
	Err  error
}

// Error defers to the cause: the runner's wrapper already prefixes the cell
// name and seed, so repeating them here would print them twice.
func (e *CellError) Error() string { return e.Err.Error() }
func (e *CellError) Unwrap() error { return e.Err }

// Sweep fans the cell lattice over the bench runner's worker pool,
// fail-fast: the first failing cell cancels the dispatch and its error —
// carrying the cell name and seed — is returned, the runner guaranteeing the
// lowest-indexed failure wins so reports are deterministic under
// parallelism.
func Sweep(ctx context.Context, cfg SweepConfig) (SweepReport, error) {
	o := NewOracle(cfg.Cfg)
	cells, specs := cfg.Cells()
	var checks, recovered atomic.Int64
	r := bench.NewRunner(cfg.Parallel, cfg.Prog)
	err := r.ForEach(ctx, cells, func(ctx context.Context, i int, c bench.Cell) error {
		spec := specs[i]
		spec.Seed = c.Seed()
		res, err := o.RunCell(spec)
		if err != nil {
			return &CellError{Cell: c, Seed: spec.Seed, Err: err}
		}
		checks.Add(res.Checks)
		if res.Recovered {
			recovered.Add(1)
			if cfg.Prog != nil {
				where := fmt.Sprintf("round %d", res.Round)
				if !spec.Scheme.Coordinated() {
					where = fmt.Sprintf("line %v", res.Line)
				}
				cfg.Prog("%-24s crash %8.2fs -> %s, %3d checks ok", c.Name(), res.CrashAt.Seconds(), where, res.Checks)
			}
		}
		return nil
	})
	rep := SweepReport{Cells: len(cells), Checks: checks.Load(), Recovered: recovered.Load()}
	if err != nil {
		return rep, err
	}
	return rep, nil
}
