package apps

import (
	"slices"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/sim"
)

// memoRowSchemes are the ten schemes of a Table 1 row (bench.Table1Schemes,
// which this package cannot import).
var memoRowSchemes = []ckpt.Variant{
	ckpt.CoordNB, ckpt.Indep, ckpt.CIC,
	ckpt.CoordNBM, ckpt.IndepM, ckpt.CICM, ckpt.CoordNBMS,
	ckpt.CoordNBInc, ckpt.IndepInc, ckpt.CICInc,
}

// runMemoRow runs wl failure-free and under each of memoRowSchemes, as a
// table row does, filling the workload's job memo.
func runMemoRow(t *testing.T, wl Workload) {
	t.Helper()
	runWorkload(t, wl, ckpt.Variant{}, 0)
	for _, v := range memoRowSchemes {
		runWorkload(t, wl, v, 300*sim.Millisecond)
	}
}

// TestTSPMemoEntriesAreSearches: every job a TSP row stored is what
// searchSubtree returns for it on a rank built outside any workload, a new
// workload value starts with an empty memo, and a second row on the same
// value searches nothing new.
func TestTSPMemoEntriesAreSearches(t *testing.T) {
	cfg := TSPConfig{Cities: 13, Seed: 0x75b, OpsPerNode: 900}
	wl := TSPWorkload(cfg)
	runMemoRow(t, wl)
	memo := wl.Make(1, 8).(*TSP).memo
	fresh := NewTSP(1, 8, cfg)
	bounds := map[int64]bool{}
	for job, r := range memo.m {
		bounds[job.bound] = true
		length, tour, explored := fresh.searchSubtree(fresh.tasks[job.task], job.bound)
		if r.length != length || !slices.Equal(r.tour, tour) || r.explored != explored {
			t.Errorf("job %+v: memo holds (%d, %v, %d), the search gives (%d, %v, %d)",
				job, r.length, r.tour, r.explored, length, tour, explored)
		}
	}
	if len(bounds) < 2 || len(memo.m) > len(fresh.tasks)*len(bounds) {
		t.Fatalf("%d jobs over %d bounds and %d tasks: want several bounds, at most tasks × bounds jobs",
			len(memo.m), len(bounds), len(fresh.tasks))
	}
	if other := TSPWorkload(cfg).Make(1, 8).(*TSP).memo; len(other.m) != 0 {
		t.Errorf("a new workload value starts with %d jobs: the memo outlives its value", len(other.m))
	}
	n := len(memo.m)
	runMemoRow(t, wl)
	if len(memo.m) != n {
		t.Errorf("the second row stored %d new jobs, want every job served from the memo", len(memo.m)-n)
	}
}

// TestNQueensMemoEntriesAreCounts: every task an NQUEENS row stored is what
// countFromPrefix returns for its prefix, every task is stored once, and a
// second row on the same workload value counts nothing new.
func TestNQueensMemoEntriesAreCounts(t *testing.T) {
	cfg := DefaultNQueens(10)
	wl := NQueensWorkload(cfg)
	runMemoRow(t, wl)
	memo := wl.Make(1, 8).(*NQueens).memo
	tasks := NewNQueens(1, 8, cfg).tasks
	if len(memo.m) != len(tasks) {
		t.Fatalf("memo holds %d tasks, want all %d", len(memo.m), len(tasks))
	}
	for task, r := range memo.m {
		count, explored := countFromPrefix(cfg.N, tasks[task])
		if r.count != count || r.explored != explored {
			t.Errorf("task %d: memo holds (%d, %d), the search gives (%d, %d)",
				task, r.count, r.explored, count, explored)
		}
	}
	runMemoRow(t, wl)
	if len(memo.m) != len(tasks) {
		t.Errorf("the second row grew the memo to %d tasks", len(memo.m))
	}
}
