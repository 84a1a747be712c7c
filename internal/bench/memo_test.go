package bench

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/mp"
	"repro/internal/par"
	"repro/internal/sim"
)

// memoRun is one run's result and its master's final state.
type memoRun struct {
	res    core.Result
	master string
}

// runWithMaster runs wl under cfg and records the master's final state
// (Best, BestTour, Count, Explored), captured where core hands the programs
// to the workload's check.
func runWithMaster(wl apps.Workload, cfg core.Config) (memoRun, error) {
	var master string
	check := wl.Check
	wl.Check = func(progs []mp.Program) error {
		switch p := progs[0].(type) {
		case *apps.TSP:
			master = fmt.Sprintf("best=%d tour=%v explored=%d", p.Best, p.BestTour, p.Explored)
		case *apps.NQueens:
			master = fmt.Sprintf("count=%d explored=%d", p.Count, p.Explored)
		}
		return check(progs)
	}
	res, err := core.Run(wl, cfg)
	return memoRun{res, master}, err
}

// memoRow runs wl as a Table 1 row does: failure-free, then under each of
// Table1Schemes with three checkpoints at a quarter of the failure-free time.
func memoRow(t *testing.T, wl apps.Workload) []memoRun {
	t.Helper()
	machine := par.DefaultConfig()
	base, err := runWithMaster(wl, core.Config{Machine: machine})
	if err != nil {
		t.Fatal(err)
	}
	runs := []memoRun{base}
	for _, v := range Table1Schemes {
		run, err := runWithMaster(wl, core.Config{
			Machine: machine, Scheme: v, Interval: base.res.Exec / 4, MaxCheckpoints: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	return runs
}

// searching returns wl with ranks built outside the workload, which search
// every job: the reference a memoized row must reproduce.
func searching(wl apps.Workload, make func(rank, size int) mp.Program) apps.Workload {
	wl.Make = make
	return wl
}

// TestMemoizedRowIsSearchedRow: a row run a second time on one workload
// value, its master/worker jobs now served from the value's memo, gives
// every core.Result field and the master's final state of a row whose ranks
// search every job. A memo that stored a wrong node count moves Exec; one
// whose stored tour was later written moves BestTour.
func TestMemoizedRowIsSearchedRow(t *testing.T) {
	tsp := apps.TSPConfig{Cities: 13, Seed: 0x75b, OpsPerNode: 900}
	queens := apps.DefaultNQueens(10)
	for _, tc := range []struct {
		wl, searched apps.Workload
	}{{
		apps.TSPWorkload(tsp),
		searching(apps.TSPWorkload(tsp), func(rank, size int) mp.Program { return apps.NewTSP(rank, size, tsp) }),
	}, {
		apps.NQueensWorkload(queens),
		searching(apps.NQueensWorkload(queens), func(rank, size int) mp.Program { return apps.NewNQueens(rank, size, queens) }),
	}} {
		t.Run(tc.wl.Name, func(t *testing.T) {
			want := memoRow(t, tc.searched)
			for pass := 1; pass <= 2; pass++ {
				got := memoRow(t, tc.wl)
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("pass %d, %s: memoized run %+v\nsearched run %+v", pass, want[i].res.Scheme, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestJobMemoScopeAndConcurrency is the job memo's race check (CI runs the
// suite under -race): two TSP workloads on different maps of one size, their
// cells interleaved on one runner at parallelism 2, each give the results of
// their own fresh runs — a memo shared between them would hand one map's
// tours to the other — and a quick TSP row rendered at parallelism 1 and 2
// prints the same Table 1.
func TestJobMemoScopeAndConcurrency(t *testing.T) {
	machine := par.DefaultConfig()
	configs := []apps.TSPConfig{{Cities: 13, Seed: 1, OpsPerNode: 900}, {Cities: 13, Seed: 2, OpsPerNode: 900}}
	wls := []apps.Workload{apps.TSPWorkload(configs[0]), apps.TSPWorkload(configs[1])}
	schemes := []ckpt.Variant{{}, ckpt.CoordNB, ckpt.Indep, ckpt.CICM, ckpt.CoordNBInc}
	cellCfg := func(v ckpt.Variant) core.Config {
		cfg := core.Config{Machine: machine}
		if v != (ckpt.Variant{}) {
			cfg.Scheme, cfg.Interval, cfg.MaxCheckpoints = v, 400*sim.Millisecond, 3
		}
		return cfg
	}
	var cells []Cell
	for _, v := range schemes {
		for i := range wls {
			cells = append(cells, Cell{App: fmt.Sprintf("TSP-13-seed%d", configs[i].Seed), Scheme: v.String()})
		}
	}
	// Each cell runs twice so the second runs hit the memo the first filled.
	got, err := Cells(context.Background(), NewRunner(2, nil), append(cells, cells...),
		func(_ context.Context, i int, _ Cell) (memoRun, error) {
			i %= len(cells)
			return runWithMaster(wls[i%2], cellCfg(schemes[i/2]))
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range append(cells, cells...) {
		j := i % len(cells)
		want, err := runWithMaster(apps.TSPWorkload(configs[j%2]), cellCfg(schemes[j/2]))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s (run %d): %+v\nfresh value: %+v", c.Name(), i/len(cells)+1, got[i], want)
		}
	}

	table := func(parallel int) string {
		quick := QuickWorkloads()
		rows, err := NewRunner(parallel, nil).MeasureRows(context.Background(), machine,
			quick[len(quick)-2:len(quick)-1], Table1Schemes, 3)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		WriteTable1(&b, rows)
		return b.String()
	}
	if serial, parallel := table(1), table(2); serial != parallel {
		t.Errorf("quick TSP row at -parallel 1:\n%s\nat -parallel 2:\n%s", serial, parallel)
	}
}
