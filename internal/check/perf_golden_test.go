package check

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/perf"
)

// TestArmedPerfTelemetryGoldenTables is the determinism guarantee of the
// host-telemetry layer (the armed counterpart of the disarmed-oracle golden
// test above): the Table 1 matrix run with a live perf.Collector on every
// simulation — phase clocks running, MemStats sampled, codec byte counters
// latched on for the whole process, cells fanned over a parallel runner so
// the collector is shared concurrently — yields results deeply equal to the
// plain runs, so the tables they render are byte-identical. The collector
// only ever reads host clocks and host counters, so it must not move a
// single virtual-time measurement.
func TestArmedPerfTelemetryGoldenTables(t *testing.T) {
	cfg := par.DefaultConfig()
	var wls []apps.Workload
	for _, name := range []string{"SOR-64", "TSP-10"} {
		wl, err := bench.WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, wl)
	}
	const ckpts = 3
	schemes := bench.Table1Schemes

	// measure runs every workload failure-free, then under every scheme at
	// the tables' interval, and returns the results baselines first.
	measure := func(collector *perf.Collector) []core.Result {
		ctx, r := context.Background(), bench.NewRunner(0, nil)
		baseCells := make([]bench.Cell, len(wls))
		var cells []bench.Cell
		for i, wl := range wls {
			baseCells[i] = bench.Cell{App: wl.Name, Scheme: "normal"}
			for _, v := range schemes {
				cells = append(cells, bench.Cell{App: wl.Name, Scheme: v.String()})
			}
		}
		base, err := bench.Cells(ctx, r, baseCells, func(_ context.Context, i int, _ bench.Cell) (core.Result, error) {
			return core.Run(wls[i], core.Config{Machine: cfg, Perf: collector})
		})
		if err != nil {
			t.Fatal(err)
		}
		runs, err := bench.Cells(ctx, r, cells, func(_ context.Context, i int, _ bench.Cell) (core.Result, error) {
			wi := i / len(schemes)
			return core.Run(wls[wi], core.Config{Machine: cfg, Scheme: schemes[i%len(schemes)],
				Interval: base[wi].Exec / (ckpts + 1), MaxCheckpoints: ckpts, Perf: collector})
		})
		if err != nil {
			t.Fatal(err)
		}
		return append(base, runs...)
	}

	plain := measure(nil)
	armed := perf.NewCollector()
	if instrumented := measure(armed); !reflect.DeepEqual(plain, instrumented) {
		for i := range plain {
			if !reflect.DeepEqual(plain[i], instrumented[i]) {
				t.Errorf("%s under %s differs under armed perf telemetry:\nplain %+v\narmed %+v",
					plain[i].Workload, plain[i].Scheme, plain[i], instrumented[i])
			}
		}
	}

	// The telemetry must actually have measured the runs it rode along on:
	// one sample per simulation (baselines included), each with live engine
	// counters and a positive wall clock.
	samples := armed.Samples()
	wantRuns := len(wls) * (1 + len(schemes)) // baseline + each scheme
	if len(samples) != wantRuns {
		t.Fatalf("collector recorded %d samples, want %d", len(samples), wantRuns)
	}
	for _, s := range samples {
		if s.Events == 0 || s.Pushes == 0 || s.Procs == 0 || s.Wall <= 0 {
			t.Fatalf("sample %s/%s missing telemetry: %+v", s.Workload, s.Scheme, s)
		}
	}
}

// TestArmedPerfTelemetryGoldenCells extends the guarantee to the
// crash-recovery oracle: one cell per protocol family run with a live
// collector yields a CellResult deeply equal to the plain run — same crash
// point, same recovery line, same execution time, same check count.
func TestArmedPerfTelemetryGoldenCells(t *testing.T) {
	lattice := []SweepConfig{QuickSweep(par.DefaultConfig())}
	o := NewOracle(lattice[0].Cfg)
	for _, name := range []string{
		"RING-256B-i40/Coord_NBM#5",
		"RING-256B-i40/Indep_M#5",
		"RING-256B-i40/CIC#5",
	} {
		_, c, spec, err := Resolve(lattice, name)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := o.RunCell(spec)
		if err != nil {
			t.Fatalf("%s (seed %#x): %v", c.Name(), c.Seed(), err)
		}
		spec.Perf = perf.NewCollector()
		armed, err := o.RunCell(spec)
		if err != nil {
			t.Fatalf("%s (seed %#x) armed: %v", c.Name(), c.Seed(), err)
		}
		if !reflect.DeepEqual(plain, armed) {
			t.Errorf("%s: armed telemetry changed the cell outcome:\nplain %+v\narmed %+v",
				c.Name(), plain, armed)
		}
		samples := spec.Perf.Samples()
		if len(samples) != 1 || samples[0].Events == 0 {
			t.Fatalf("%s: cell not sampled: %+v", c.Name(), samples)
		}
	}
}
