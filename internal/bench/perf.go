package bench

import (
	"context"
	"time"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/perf"
)

// The perf-trajectory harness (cmd/chkperf, `make bench-perf`) runs a PINNED
// cell matrix: BENCH_*.json reports are only comparable run over run if every
// run measures exactly the same work, so these sets must not change. To
// measure something else, add a new matrix id — never edit an existing one.
// The ids below are embedded in every report and checked by perf.Compare.
const (
	PerfMatrixFull = "pinned-v1"
	// quick-v2 extended quick-v1 with one 64-node/4-server sharded-storage
	// cell (the topology subsystem's scaling hot path). quick-v3 added the
	// incremental scheme Indep_INC to the quick scheme set (the delta-codec
	// and dirty-tracker hot paths). quick-v4 added Coord_NB_FT (the
	// three-phase commit and heartbeat paths the failover subsystem keeps hot
	// even in fault-free runs); BENCH_baseline.json was regenerated at each
	// bump.
	PerfMatrixQuick = "quick-v4"
)

// perfWorkloads returns the pinned workload set: one representative per
// communication pattern — neighbour exchange (SOR), heavier neighbour
// exchange with larger state (ISING), all-to-all pipelined elimination
// (GAUSS), and dynamic master/worker (TSP).
func perfWorkloads(quick bool) []apps.Workload {
	if quick {
		return []apps.Workload{
			apps.SORWorkload(apps.DefaultSOR(64, 30)),
			apps.TSPWorkload(apps.TSPConfig{Cities: 10, Seed: 0x75b, OpsPerNode: 400}),
		}
	}
	return []apps.Workload{
		apps.SORWorkload(apps.DefaultSOR(128, 60)),
		apps.IsingWorkload(apps.DefaultIsing(256, 30)),
		apps.GaussWorkload(apps.DefaultGauss(128)),
		apps.TSPWorkload(apps.TSPConfig{Cities: 12, Seed: 0x75b, OpsPerNode: 400}),
	}
}

// perfSchemes returns the pinned scheme set: both coordinated poles (fully
// blocking and staggered main-memory), both independent variants, and both
// CIC variants — the protocol mix that exercises every engine hot path
// (markers, piggybacks, logging, storage traffic). The quick set carries one
// incremental scheme so the delta codec and dirty tracker stay on the
// measured hot path, and the fault-tolerant coordinated variant so the
// pre-commit round trip and heartbeat timers are measured too.
func perfSchemes(quick bool) []ckpt.Variant {
	if quick {
		return []ckpt.Variant{ckpt.CoordNBMS, ckpt.CoordNBFT, ckpt.Indep, ckpt.IndepInc, ckpt.CICM}
	}
	return []ckpt.Variant{ckpt.CoordB, ckpt.CoordNBMS, ckpt.Indep, ckpt.IndepM, ckpt.CIC, ckpt.CICM}
}

// PerfMatrixName returns the pinned matrix id a RunPerf call will stamp into
// its report.
func PerfMatrixName(quick bool) string {
	if quick {
		return PerfMatrixQuick
	}
	return PerfMatrixFull
}

// RunPerf executes the pinned perf matrix with host telemetry armed and
// returns the trajectory report. The runner's Perf collector receives one
// sample per simulation (baselines included); per-cell allocation and codec
// attribution is exact because the matrix runs through the given runner —
// callers wanting exact per-cell numbers pass parallel == 1 (the chkperf
// default), callers wanting throughput saturate the pool.
func RunPerf(ctx context.Context, cfg par.Config, quick bool, r *Runner, stamp string) (*perf.Report, error) {
	if r.Perf == nil {
		r.Perf = perf.NewCollector()
	}
	start := time.Now()
	_, err := r.MeasureRows(ctx, cfg, perfWorkloads(quick), perfSchemes(quick), 3)
	if err != nil {
		return nil, err
	}
	if quick {
		// The scaling cell added in quick-v2: the 64-node mesh with storage striped over
		// 4 servers, the cheapest cell that drives the topology subsystem's
		// hot paths (big-mesh routing, shard fan-out) through the perf
		// telemetry. The full matrix predates the subsystem and is pinned, so
		// it stays unchanged.
		cell := ScaleCell{MeshW: 8, MeshH: 8, Servers: 4}
		_, err = r.MeasureRows(ctx, scaleConfig(cfg, cell),
			[]apps.Workload{scaleWorkload(cell.Nodes())}, []ckpt.Variant{ckpt.CoordNB}, 2)
		if err != nil {
			return nil, err
		}
	}
	return perf.BuildReport(r.Perf, time.Since(start), PerfMatrixName(quick), stamp, r.EffectiveParallel()), nil
}

// WallQuantiles folds per-cell wall-clock timings through the perf layer's
// histogram (obs.Histogram over perf.WallBounds) and returns the interpolated
// p50/p95/p99, in seconds — the tail summary `chkbench -celltime` and the
// JSON timing section report alongside the raw per-cell listing.
func WallQuantiles(timings []CellTime) (p50, p95, p99 float64) {
	h := obs.NewHistogram(perf.WallBounds)
	for _, ct := range timings {
		h.Observe(ct.Wall.Seconds())
	}
	return h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
}
