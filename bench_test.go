// Package repro's top-level benchmarks regenerate each of the paper's
// tables (and the extension experiments) on reduced workloads, one benchmark
// per table/figure, reporting the headline quantity as a custom metric.
// The full-size tables are produced by cmd/chkbench.
package repro_test

import (
	"context"
	"io"
	"testing"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/sim"
)

// measureRows measures the compact slice through all seven applications
// under the given schemes, three checkpoints each.
func measureRows(b *testing.B, schemes []ckpt.Variant) []bench.Row {
	rows, err := bench.NewRunner(0, nil).MeasureRows(context.Background(), par.DefaultConfig(), bench.QuickWorkloads(), schemes, 3)
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

// BenchmarkTable1OverheadPerCheckpoint regenerates Table 1 (overhead per
// checkpoint for NB, Indep, NBM, Indep_M, NBMS) on the reduced workload set
// and reports the mean per-checkpoint overhead of Coord_NB in virtual
// milliseconds.
func BenchmarkTable1OverheadPerCheckpoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := measureRows(b, bench.Table1Schemes)
		var nb sim.Duration
		for _, r := range rows {
			nb += r.PerCkpt(ckpt.CoordNB)
		}
		b.ReportMetric(nb.Seconds()*1e3/float64(len(rows)), "virtual-ms/ckpt(NB)")
		bench.WriteTable1(io.Discard, rows)
	}
}

// BenchmarkTable2ExecutionTimes regenerates Table 2 (execution times with 3
// checkpoints) and reports the mean relative overhead of Coord_NBMS.
func BenchmarkTable2ExecutionTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := measureRows(b, bench.Table2Schemes)
		var pct float64
		for _, r := range rows {
			pct += r.Percent(ckpt.CoordNBMS)
		}
		b.ReportMetric(pct/float64(len(rows)), "overhead-%(NBMS)")
		bench.WriteTable2(io.Discard, rows)
	}
}

// BenchmarkTable3PercentOverhead regenerates Table 3 (percentage overheads
// and NB→NBMS reduction factors) and reports the mean NB/NBMS factor.
func BenchmarkTable3PercentOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := measureRows(b, bench.Table2Schemes)
		factor, n := 0.0, 0
		for _, r := range rows {
			if nbms := r.Percent(ckpt.CoordNBMS); nbms > 0 {
				factor += r.Percent(ckpt.CoordNB) / nbms
				n++
			}
		}
		if n > 0 {
			b.ReportMetric(factor/float64(n), "NB/NBMS-factor")
		}
		bench.WriteTable3(io.Discard, rows)
	}
}

// BenchmarkExperiment regenerates every entry of the catalogue on its quick
// grid, one sub-benchmark per -exp name (E7's recovery demo is -exp coord).
func BenchmarkExperiment(b *testing.B) {
	for _, e := range bench.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Run(context.Background(), io.Discard, par.DefaultConfig(), true, bench.NewRunner(0, nil)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures the raw event throughput of the
// simulation substrate on a communication-heavy workload (useful when
// tuning the kernel itself).
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		wl := apps.ASPWorkload(apps.DefaultASP(64))
		if _, err := core.Run(wl, core.Default()); err != nil {
			b.Fatal(err)
		}
	}
}
