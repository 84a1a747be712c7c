package apps

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// searchSubtreeRef is searchSubtree as it was before the lower bound's sum
// over the unvisited cities became a running total: the same search, with the
// sum recomputed by a loop at every expanded node.
func (t *TSP) searchSubtreeRef(prefix [2]int, bound int64) (int64, []int, int) {
	n := t.Cfg.Cities
	visited := make([]bool, n)
	path := make([]int, 0, n)
	path = append(path, 0, prefix[0], prefix[1])
	visited[0], visited[prefix[0]], visited[prefix[1]] = true, true, true
	cur := t.dist[0][prefix[0]] + t.dist[prefix[0]][prefix[1]]
	best := bound
	var bestTour []int
	explored := 0
	var rec func(last int, length int64)
	rec = func(last int, length int64) {
		explored++
		if len(path) == n {
			total := length + t.dist[last][0]
			if total < best {
				best = total
				bestTour = append([]int(nil), path...)
			}
			return
		}
		lb := length + t.minOut[last]
		for j := 1; j < n; j++ {
			if !visited[j] {
				lb += t.minOut[j]
			}
		}
		if lb >= best {
			return
		}
		for j := 1; j < n; j++ {
			if visited[j] {
				continue
			}
			visited[j] = true
			path = append(path, j)
			rec(j, length+t.dist[last][j])
			path = path[:len(path)-1]
			visited[j] = false
		}
	}
	rec(prefix[1], cur)
	return best, bestTour, explored
}

// TestTSPRunningBoundMatchesLoop: the search tests each child's bound in its
// parent's loop, carries the bound's sum over the unvisited cities, and walks
// them as a bitmask, all in integers, so every pruning decision — and with
// them the optimum, the tour and the node count that virtual compute time is
// charged from — must be exactly the per-node loop's. Each prefix is searched
// the way a worker would search it (bound tightening task after task, as the
// master hands it out), against the exact optimum (the >= tie prunes every
// optimal tour) and, on small maps, against no bound at all. The paper's
// 16-city map runs on its first 20 tasks.
func TestTSPRunningBoundMatchesLoop(t *testing.T) {
	check := func(cfg TSPConfig, tasks int, unbounded bool) {
		tt := NewTSP(0, 2, cfg)
		opt := HeldKarp(cfg)
		compare := func(prefix [2]int, bound int64) int64 {
			best, tour, explored := tt.searchSubtree(prefix, bound)
			wantBest, wantTour, wantExplored := tt.searchSubtreeRef(prefix, bound)
			if best != wantBest || explored != wantExplored || !reflect.DeepEqual(tour, wantTour) {
				t.Fatalf("%d cities, seed %d, prefix %v, bound %d: best %d tour %v explored %d, loop gives %d %v %d",
					cfg.Cities, cfg.Seed, prefix, bound, best, tour, explored, wantBest, wantTour, wantExplored)
			}
			return wantBest
		}
		bound := tt.Best // the greedy tour's length
		for _, prefix := range tt.tasks[:min(tasks, len(tt.tasks))] {
			bound = compare(prefix, bound)
			compare(prefix, opt)
			if unbounded {
				compare(prefix, math.MaxInt64)
			}
		}
	}
	for cities := 9; cities <= 13; cities++ {
		for seed := uint64(1); seed <= 5; seed++ {
			check(TSPConfig{Cities: cities, Seed: seed}, math.MaxInt, cities <= 10)
		}
	}
	check(DefaultTSP(), 20, false)
}

// TestAllocsTSPSearch: a subtree search allocates its path buffer and one
// tour per improvement, nothing per node. Against the exact optimum nothing
// improves; against one more, only the first optimal tour does.
func TestAllocsTSPSearch(t *testing.T) {
	cfg := TSPConfig{Cities: 11, Seed: 3}
	tt := NewTSP(1, 2, cfg)
	opt := HeldKarp(cfg)
	found := false
	for _, task := range tt.tasks {
		_, tour, _ := tt.searchSubtree(task, opt+1)
		improved := 0.0
		if tour != nil {
			improved, found = 1, true
		}
		for bound, want := range map[int64]float64{opt: 1, opt + 1: 1 + improved} {
			if allocs := testing.AllocsPerRun(5, func() { tt.searchSubtree(task, bound) }); allocs != want {
				t.Fatalf("prefix %v, bound %d: %.1f allocations per search, want %.0f", task, bound, allocs, want)
			}
		}
	}
	if !found {
		t.Fatal("no subtree holds an optimal tour")
	}
}

// TestNewTSPCityLimit: the search's unvisited set is one uint64, so a map
// larger than 64 cities is refused by name.
func TestNewTSPCityLimit(t *testing.T) {
	for _, tc := range []struct {
		cities int
		ok     bool
	}{{3, true}, {16, true}, {64, true}, {65, false}, {200, false}} {
		func() {
			defer func() {
				r := recover()
				if tc.ok && r != nil {
					t.Fatalf("%d cities: unexpected panic %v", tc.cities, r)
				}
				if !tc.ok && (r == nil || !strings.Contains(fmt.Sprint(r), "limit of 64")) {
					t.Fatalf("%d cities: panic %v, want one naming the limit of 64", tc.cities, r)
				}
			}()
			NewTSP(1, 2, TSPConfig{Cities: tc.cities, Seed: 1})
		}()
	}
}

// BenchmarkTSPSubtree searches every subtree of a 13-city map against the
// exact optimum, the pruning a worker sees once the master holds it.
func BenchmarkTSPSubtree(b *testing.B) {
	cfg := TSPConfig{Cities: 13, Seed: 0x75b}
	tt := NewTSP(1, 2, cfg)
	opt := HeldKarp(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	nodes := 0
	for i := 0; i < b.N; i++ {
		for _, task := range tt.tasks {
			_, _, explored := tt.searchSubtree(task, opt)
			nodes += explored
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
}
