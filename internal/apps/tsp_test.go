package apps

import (
	"math"
	"reflect"
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

// TestTSPRunningBoundMatchesLoop: the bound is a sum of integers, so carrying
// it must leave every pruning decision — and with them the optimum, the tour
// and the node count that virtual compute time is charged from — exactly as
// the per-node loop had them. Each prefix is searched the way a worker would
// search it (bound tightening task after task, as the master hands it out) and
// once more against no bound at all.
func TestTSPRunningBoundMatchesLoop(t *testing.T) {
	for cities := 9; cities <= 13; cities++ {
		for seed := uint64(1); seed <= 5; seed++ {
			tt := NewTSP(0, 2, TSPConfig{Cities: cities, Seed: seed})
			compare := func(prefix [2]int, bound int64) int64 {
				best, tour, explored := tt.searchSubtree(prefix, bound)
				wantBest, wantTour, wantExplored := tt.searchSubtreeRef(prefix, bound)
				if best != wantBest || explored != wantExplored || !reflect.DeepEqual(tour, wantTour) {
					t.Fatalf("%d cities, seed %d, prefix %v, bound %d: best %d tour %v explored %d, loop gives %d %v %d",
						cities, seed, prefix, bound, best, tour, explored, wantBest, wantTour, wantExplored)
				}
				return wantBest
			}
			bound := tt.Best // the greedy tour's length
			for _, prefix := range tt.tasks {
				bound = compare(prefix, bound)
				if cities <= 10 {
					compare(prefix, math.MaxInt64)
				}
			}
		}
	}
}
