// Package bench defines the paper's experiments: the workload sets behind
// Tables 1-3, the runner that fans their independent cells over a worker
// pool and regenerates each table, and the catalogue of extension experiments
// and recovery demos (Experiments: what `chkbench -exp NAME` runs).
package bench

import (
	"repro/internal/apps"
	"repro/internal/ckpt"
)

// Table1Workloads returns the 21 application configurations of Table 1
// (overhead per checkpoint): eight ISING sizes, five SOR sizes, two GAUSS,
// two ASP, two NBODY, TSP and NQUEENS.
func Table1Workloads() []apps.Workload {
	var wls []apps.Workload
	for _, l := range []int{256, 384, 512, 640, 768, 896, 1024, 1152} {
		wls = append(wls, apps.IsingWorkload(apps.DefaultIsing(l, 40)))
	}
	for _, n := range []int{128, 192, 256, 384, 512} {
		wls = append(wls, apps.SORWorkload(apps.DefaultSOR(n, 100)))
	}
	for _, n := range []int{384, 512} {
		wls = append(wls, apps.GaussWorkload(apps.DefaultGauss(n)))
	}
	for _, n := range []int{384, 512} {
		wls = append(wls, apps.ASPWorkload(apps.DefaultASP(n)))
	}
	for _, n := range []int{1024, 2048} {
		wls = append(wls, apps.NBodyWorkload(apps.DefaultNBody(n, 10)))
	}
	wls = append(wls, apps.TSPWorkload(apps.DefaultTSP()))
	wls = append(wls, apps.NQueensWorkload(apps.DefaultNQueens(14)))
	return wls
}

// Table2Workloads returns the nine configurations of Tables 2 and 3
// (execution times and overhead with 3 checkpoints). As in the paper, SOR
// and ISING run 100 iterations and NBODY simulates 10 steps.
func Table2Workloads() []apps.Workload {
	return []apps.Workload{
		apps.IsingWorkload(apps.DefaultIsing(512, 100)),
		apps.IsingWorkload(apps.DefaultIsing(1024, 100)),
		apps.SORWorkload(apps.DefaultSOR(256, 100)),
		apps.SORWorkload(apps.DefaultSOR(512, 100)),
		apps.GaussWorkload(apps.DefaultGauss(512)),
		apps.ASPWorkload(apps.DefaultASP(512)),
		apps.NBodyWorkload(apps.DefaultNBody(2048, 10)),
		apps.TSPWorkload(apps.DefaultTSP()),
		apps.NQueensWorkload(apps.DefaultNQueens(14)),
	}
}

// QuickWorkloads returns reduced-size instances of all seven applications
// for fast smoke benchmarks (used by the go-test benchmarks so the full
// tables stay in cmd/chkbench).
func QuickWorkloads() []apps.Workload {
	return []apps.Workload{
		apps.IsingWorkload(apps.DefaultIsing(128, 20)),
		apps.SORWorkload(apps.DefaultSOR(128, 30)),
		apps.GaussWorkload(apps.DefaultGauss(128)),
		apps.ASPWorkload(apps.DefaultASP(128)),
		apps.NBodyWorkload(apps.DefaultNBody(256, 5)),
		apps.TSPWorkload(apps.TSPConfig{Cities: 13, Seed: 0x75b, OpsPerNode: 900}),
		apps.NQueensWorkload(apps.DefaultNQueens(10)),
	}
}

// Table1Schemes is the paper's Table 1 column order, extended with the
// communication-induced family (not in the paper; same blocking/main-memory
// split as the other columns) and each family's incremental variant (full
// base every ckpt.BaseEvery checkpoints, page deltas between).
var Table1Schemes = []ckpt.Variant{
	ckpt.CoordNB, ckpt.Indep, ckpt.CIC,
	ckpt.CoordNBM, ckpt.IndepM, ckpt.CICM, ckpt.CoordNBMS,
	ckpt.CoordNBInc, ckpt.IndepInc, ckpt.CICInc,
}

// Table2Schemes is the paper's Table 2/3 column order, extended with the
// communication-induced family and the incremental variants.
var Table2Schemes = []ckpt.Variant{
	ckpt.CoordNB, ckpt.Indep, ckpt.CIC,
	ckpt.CoordNBMS, ckpt.IndepM, ckpt.CICM,
	ckpt.CoordNBInc, ckpt.IndepInc, ckpt.CICInc,
}
