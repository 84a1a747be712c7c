package main

import (
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/sim"
)

// workload is one set of inputs the benchmark runs. The names are permanent:
// later changes compare against numbers recorded under them.
type workload struct {
	name    string
	why     string
	workers int // bench.Runner parallelism of a pass

	// build generates the workload's inputs from the seed and returns the
	// function that runs one pass over them. Nothing but the generated inputs
	// depends on the seed. smoke selects the toy sizes the test runs.
	build func(seed uint64, smoke bool) func(p *pass)
}

var workloads = []workload{
	{
		name:    "paper-tables",
		why:     "all 7 quick apps x 10 Table-1 schemes on the 2x4 mesh, Tables 1-3 rendered: the paper's regime, host time mostly app kernels",
		workers: 1,
		build:   buildPaperTables,
	},
	{
		name:    "scale-256",
		why:     "256-node ring on a 16x16 mesh, 4 servers: one O(n^2) marker flood, no app arithmetic, so sim and fabric do the work",
		workers: 1,
		build:   buildScale,
	},
	{
		name:    "ckpt-bulk",
		why:     "PAGES (1 MiB state per rank) under full-image schemes: every byte goes snapshot, codec, 4 KiB packets, storage server",
		workers: 1,
		build: func(seed uint64, smoke bool) func(*pass) {
			return buildPages(seed, smoke, []ckpt.Variant{ckpt.CoordNB, ckpt.IndepM, ckpt.CoordNBMS})
		},
	},
	{
		name:    "ckpt-inc",
		why:     "the same PAGES inputs under incremental schemes: dirty scan, delta and zero-run encoders, a quarter of the bytes on the fabric",
		workers: 1,
		build: func(seed uint64, smoke bool) func(*pass) {
			return buildPages(seed, smoke, []ckpt.Variant{ckpt.CoordNBInc, ckpt.IndepInc, ckpt.CICInc})
		},
	},
	{
		name:    "oracle-recover",
		why:     "quick oracle sweep, 2 seeds, 2 workers: crash, read back, decode, replay, audit; the only parallel workload, so global contention shows",
		workers: 2,
		build:   buildOracle,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// jitter returns a factor within 0.1 % of 1, drawn from (seed, k). The
// generated inputs scale their virtual cost per operation by it, so virtual
// times differ from seed to seed while the host does the same work.
func jitter(seed uint64, k uint64) float64 {
	return 1 + 1e-3*(2*rng.New(seed^k*0x9e3779b97f4a7c15).Float64()-1)
}

func pick[T any](smoke bool, toy, full T) T {
	if smoke {
		return toy
	}
	return full
}

// schemeRun runs wl under v with the given number of checkpoints spread over
// a failure-free execution of length normal.
func schemeRun(wl apps.Workload, cfg par.Config, v ckpt.Variant, normal sim.Duration, ckpts int, in instr) (cellResult, error) {
	res, err := core.Run(wl, core.Config{
		Machine:        cfg,
		Scheme:         v,
		Interval:       normal / sim.Duration(ckpts+1),
		MaxCheckpoints: ckpts,
		Perf:           in.Perf,
		Obs:            in.Obs,
	})
	return fromCore(res), err
}

func baselineRun(wl apps.Workload, cfg par.Config, in instr) (cellResult, error) {
	res, err := core.Run(wl, core.Config{Machine: cfg, Perf: in.Perf, Obs: in.Obs})
	return fromCore(res), err
}

// paperApps mirrors bench.QuickWorkloads with the data seeds and the virtual
// cost per operation drawn from the benchmark seed. TSP keeps its map: the
// size of a branch-and-bound tree swings by an order of magnitude between
// maps, which would drown every other app in the pass.
func paperApps(seed uint64, smoke bool) []apps.Workload {
	ising := apps.DefaultIsing(pick(smoke, 32, 128), pick(smoke, 4, 20))
	ising.Seed, ising.OpsPerSite = splitmix(seed^1), ising.OpsPerSite*jitter(seed, 1)
	sor := apps.DefaultSOR(pick(smoke, 32, 128), pick(smoke, 6, 30))
	sor.OpsPerSite *= jitter(seed, 2)
	if smoke {
		return []apps.Workload{apps.IsingWorkload(ising), apps.SORWorkload(sor)}
	}
	gauss := apps.DefaultGauss(128)
	gauss.Seed, gauss.OpsPerRel = splitmix(seed^3), gauss.OpsPerRel*jitter(seed, 3)
	asp := apps.DefaultASP(128)
	asp.Seed, asp.OpsPerRel = splitmix(seed^4), asp.OpsPerRel*jitter(seed, 4)
	nbody := apps.DefaultNBody(256, 5)
	nbody.Seed, nbody.OpsPerPair = splitmix(seed^5), nbody.OpsPerPair*jitter(seed, 5)
	tsp := apps.TSPConfig{Cities: 13, Seed: 0x75b, OpsPerNode: 900 * jitter(seed, 6)}
	queens := apps.DefaultNQueens(10)
	queens.OpsPerNode *= jitter(seed, 7)
	return []apps.Workload{
		apps.IsingWorkload(ising), apps.SORWorkload(sor), apps.GaussWorkload(gauss),
		apps.ASPWorkload(asp), apps.NBodyWorkload(nbody), apps.TSPWorkload(tsp),
		apps.NQueensWorkload(queens),
	}
}

// buildPaperTables is what `chkbench -quick -table all` costs: every app run
// failure-free, then under every Table-1 scheme with 3 checkpoints, then the
// three tables rendered.
func buildPaperTables(seed uint64, smoke bool) func(*pass) {
	cfg := par.DefaultConfig()
	wls := paperApps(seed, smoke)
	schemes := pick(smoke, []ckpt.Variant{ckpt.CoordNB, ckpt.IndepM, ckpt.CICInc}, bench.Table1Schemes)
	const ckpts = 3
	baseCells := make([]bench.Cell, len(wls))
	var cells []bench.Cell
	for i, wl := range wls {
		baseCells[i] = bench.Cell{App: wl.Name, Scheme: "normal"}
		for _, v := range schemes {
			cells = append(cells, bench.Cell{App: wl.Name, Scheme: v.String()})
		}
	}
	return func(p *pass) {
		rows := make([]bench.Row, len(wls))
		for i, wl := range wls {
			rows[i] = bench.Row{Workload: wl.Name, Ckpts: ckpts,
				Exec:  map[ckpt.Variant]sim.Duration{},
				Done:  map[ckpt.Variant]float64{},
				Stats: map[ckpt.Variant]ckpt.Stats{}}
		}
		p.cells(baseCells, func(i int, in instr) (cellResult, error) {
			res, err := baselineRun(wls[i], cfg, in)
			rows[i].Normal, rows[i].Interval = res.Exec, res.Exec/(ckpts+1)
			return res, err
		})
		outs := p.cells(cells, func(i int, in instr) (cellResult, error) {
			return schemeRun(wls[i/len(schemes)], cfg, schemes[i%len(schemes)], rows[i/len(schemes)].Normal, ckpts, in)
		})
		for i, out := range outs {
			row, v := &rows[i/len(schemes)], schemes[i%len(schemes)]
			row.Exec[v], row.Stats[v] = out.Exec, out.Ckpt
			row.Done[v] = float64(out.Ckpt.Rounds)
			if !v.Coordinated() {
				row.Done[v] = float64(out.Ckpt.Checkpoints) / float64(cfg.Fabric.Nodes())
			}
		}
		bench.WriteTable1(io.Discard, rows)
		bench.WriteTable2(io.Discard, rows)
		bench.WriteTable3(io.Discard, rows)
	}
}

// buildScale is E14's largest coordinated cell and its two neighbours: the
// failure-free ring, then one checkpoint under Coord_NB and under Indep.
func buildScale(seed uint64, smoke bool) func(*pass) {
	side := pick(smoke, 4, 16)
	cfg := par.DefaultConfig()
	cfg.Fabric.MeshW, cfg.Fabric.MeshH = side, side
	cfg.StorageServers = 4
	cfg.CkptImageBytes = 4096
	wl := bench.RingWorkloadN(side*side, 1024, pick(smoke, 8, 40), 1e6*jitter(seed, 1))
	schemes := []ckpt.Variant{ckpt.CoordNB, ckpt.Indep}
	return baselineThenSchemes(fmt.Sprintf("SCALE-%dn-4s", side*side), wl, cfg, schemes, 1)
}

// buildPages runs PAGES failure-free and then under each scheme.
func buildPages(seed uint64, smoke bool, schemes []ckpt.Variant) func(*pass) {
	pc := pagesConfig{Seed: seed, StateBytes: 1 << 20, Iters: 100, DirtyPer: 2, OpsPerIter: 4e7 * jitter(seed, 1)}
	ckpts := 24
	if smoke {
		pc.StateBytes, pc.Iters, ckpts = 64<<10, 12, 4
	}
	wl := pagesWorkload(pc)
	return baselineThenSchemes(wl.Name, wl, par.DefaultConfig(), schemes, ckpts)
}

// baselineThenSchemes is the pass shape of the single-app workloads: the
// failure-free run fixes the checkpoint interval, then one cell per scheme.
func baselineThenSchemes(app string, wl apps.Workload, cfg par.Config, schemes []ckpt.Variant, ckpts int) func(*pass) {
	base := []bench.Cell{{App: app, Scheme: "normal"}}
	cells := make([]bench.Cell, len(schemes))
	for i, v := range schemes {
		cells[i] = bench.Cell{App: app, Scheme: v.String()}
	}
	return func(p *pass) {
		var normal sim.Duration
		p.cells(base, func(_ int, in instr) (cellResult, error) {
			res, err := baselineRun(wl, cfg, in)
			normal = res.Exec
			return res, err
		})
		p.cells(cells, func(i int, in instr) (cellResult, error) {
			return schemeRun(wl, cfg, schemes[i], normal, ckpts, in)
		})
	}
}

// buildOracle drives the quick oracle lattice the way check.Sweep does, two
// seeds per crash stratum. A pass starts from a fresh Oracle so that every
// pass also pays for the fault-free baselines.
func buildOracle(seed uint64, smoke bool) func(*pass) {
	sweep := check.QuickSweep(par.DefaultConfig())
	sweep.Seeds = 2
	sweep.Apps[0] = bench.RingWorkload(256, 40, 2e5*jitter(seed, 1))
	if smoke {
		sweep.Apps = sweep.Apps[:1]
		sweep.Schemes = []ckpt.Variant{ckpt.CoordNB, ckpt.IndepInc, ckpt.CIC}
		sweep.Points, sweep.Seeds = 2, 1
	}
	cells, specs := sweep.Cells()
	return func(p *pass) {
		o := check.NewOracle(sweep.Cfg)
		p.cells(cells, func(i int, in instr) (cellResult, error) {
			spec := specs[i]
			spec.Seed, spec.Perf, spec.Obs = cells[i].Seed(), in.Perf, in.Obs
			res, err := o.RunCell(spec)
			return cellResult{Exec: res.Exec, Checks: res.Checks, Recovered: res.Recovered}, err
		})
	}
}
