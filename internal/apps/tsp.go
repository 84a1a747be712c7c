package apps

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/codec"
	"repro/internal/mp"
)

// TSPConfig parameterizes the travelling-salesman benchmark.
type TSPConfig struct {
	Cities     int // dense map size (the paper uses 16)
	Seed       uint64
	OpsPerNode float64 // abstract CPU ops per search-tree node
}

// DefaultTSP returns the paper's 16-city dense map.
func DefaultTSP() TSPConfig { return TSPConfig{Cities: 16, Seed: 0x75b, OpsPerNode: 400} }

// tspDist builds the deterministic integer distance matrix from hashed city
// coordinates on a 1000x1000 map.
func tspDist(cfg TSPConfig) [][]int64 {
	n := cfg.Cities
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = 1000 * hash01(mix(cfg.Seed, 1, uint64(i)))
		ys[i] = 1000 * hash01(mix(cfg.Seed, 2, uint64(i)))
	}
	d := make([][]int64, n)
	for i := range d {
		d[i] = make([]int64, n)
		for j := range d[i] {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			d[i][j] = int64(math.Sqrt(dx*dx+dy*dy)) + 1
			if i == j {
				d[i][j] = 0
			}
		}
	}
	return d
}

// TSP solves the travelling salesman problem by branch and bound with a
// master/worker decomposition: the master owns a queue of depth-2 tour
// prefixes and the best tour found so far; workers request a prefix, search
// its subtree with the current bound, and return improvements piggybacked on
// the next request. Rank 0 is the master.
type TSP struct {
	Cfg  TSPConfig
	Rank int
	Size int

	// Master state.
	NextTask int
	Released int
	Best     int64
	BestTour []int

	// Worker state.
	Phase    int    // 0: send request; 1: awaiting task
	Pending  []byte // result to piggyback on the next request
	Explored int64  // total search nodes expanded (statistics)

	dist   [][]int64
	minOut []int64
	tasks  [][2]int
}

// tspMaxCities is the largest map the search handles: its set of unvisited
// cities is one uint64 bitmask.
const tspMaxCities = 64

// NewTSP builds rank's role (rank 0 = master, others workers).
func NewTSP(rank, size int, cfg TSPConfig) *TSP {
	if cfg.Cities > tspMaxCities {
		panic(fmt.Sprintf("apps: TSP with %d cities exceeds the limit of %d", cfg.Cities, tspMaxCities))
	}
	t := &TSP{Cfg: cfg, Rank: rank, Size: size, Best: math.MaxInt64}
	t.dist = tspDist(cfg)
	n := cfg.Cities
	t.minOut = make([]int64, n)
	for i := 0; i < n; i++ {
		m := int64(math.MaxInt64)
		for j := 0; j < n; j++ {
			if i != j && t.dist[i][j] < m {
				m = t.dist[i][j]
			}
		}
		t.minOut[i] = m
	}
	for a := 1; a < n; a++ {
		for b := 1; b < n; b++ {
			if b != a {
				t.tasks = append(t.tasks, [2]int{a, b})
			}
		}
	}
	if rank == 0 {
		t.Best, t.BestTour = t.greedyTour()
	}
	return t
}

// TSPWorkload adapts the benchmark to the harness registry. The exact
// optimum is computed once and cached across the table's scheme runs; the
// cache is filled under a sync.Once because those runs' Checks may execute
// concurrently.
func TSPWorkload(cfg TSPConfig) Workload {
	var (
		once sync.Once
		want int64
	)
	return Workload{
		Name: fmt.Sprintf("TSP-%d", cfg.Cities),
		Make: func(rank, size int) mp.Program { return NewTSP(rank, size, cfg) },
		Check: func(progs []mp.Program) error {
			once.Do(func() { want = HeldKarp(cfg) })
			master := progs[0].(*TSP)
			if master.Best != want {
				return fmt.Errorf("tsp: optimum %d, reference %d", master.Best, want)
			}
			if got := tourLength(master.dist, master.BestTour); got != want {
				return fmt.Errorf("tsp: best tour has length %d, claimed %d", got, want)
			}
			return nil
		},
	}
}

func tourLength(d [][]int64, tour []int) int64 {
	if len(tour) == 0 {
		return math.MaxInt64
	}
	var sum int64
	for i := range tour {
		sum += d[tour[i]][tour[(i+1)%len(tour)]]
	}
	return sum
}

// greedyTour seeds the bound with a nearest-neighbour tour from city 0.
func (t *TSP) greedyTour() (int64, []int) {
	n := t.Cfg.Cities
	visited := make([]bool, n)
	tour := []int{0}
	visited[0] = true
	cur := 0
	var length int64
	for len(tour) < n {
		best, bd := -1, int64(math.MaxInt64)
		for j := 0; j < n; j++ {
			if !visited[j] && t.dist[cur][j] < bd {
				best, bd = j, t.dist[cur][j]
			}
		}
		visited[best] = true
		tour = append(tour, best)
		length += bd
		cur = best
	}
	length += t.dist[cur][0]
	return length, tour
}

const (
	tagWorkReq = 41
	tagWork    = 42
)

// Run executes the master or worker role.
func (t *TSP) Run(e *mp.Env) {
	if t.Rank == 0 {
		t.runMaster(e)
	} else {
		t.runWorker(e)
	}
}

func (t *TSP) runMaster(e *mp.Env) {
	for t.Released < t.Size-1 {
		m := e.Recv(mp.Any, tagWorkReq)
		t.absorb(m.Data)
		e.Compute(2000)
		w := codec.NewWriter()
		if t.NextTask < len(t.tasks) {
			w.Int(t.NextTask)
			w.I64(t.Best)
			t.NextTask++
		} else {
			w.Int(-1)
			w.I64(t.Best)
			t.Released++
		}
		e.Send(m.Src, tagWork, w.Bytes())
	}
}

// absorb folds a worker's piggybacked result into the master state.
func (t *TSP) absorb(data []byte) {
	r := codec.NewReader(data)
	if !r.Bool() {
		return // request without a result
	}
	length := r.I64()
	tour := r.Ints()
	explored := r.I64()
	if r.Err() != nil {
		panic(r.Err())
	}
	t.Explored += explored
	if length < t.Best {
		t.Best = length
		t.BestTour = tour
	}
}

func (t *TSP) runWorker(e *mp.Env) {
	for {
		if t.Phase == 0 {
			req := t.Pending
			if req == nil {
				w := codec.NewWriter()
				w.Bool(false)
				req = w.Bytes()
			}
			e.Send(0, tagWorkReq, req)
			t.Phase = 1
		}
		m := e.Recv(0, tagWork)
		r := codec.NewReader(m.Data)
		task := r.Int()
		bound := r.I64()
		if task < 0 {
			t.Best = bound
			return
		}
		prefix := t.tasks[task]
		length, tour, explored := t.searchSubtree(prefix, bound)
		w := codec.NewWriter()
		w.Bool(true)
		w.I64(length)
		w.Ints(tour)
		w.I64(int64(explored))
		t.Pending = w.Bytes()
		t.Explored += int64(explored)
		t.Phase = 0
		e.Compute(float64(explored) * t.Cfg.OpsPerNode)
	}
}

// searchSubtree explores all tours starting 0 -> prefix[0] -> prefix[1] with
// branch-and-bound, returning the best complete tour found (or bound and nil
// if none improves it) plus the number of expanded nodes.
func (t *TSP) searchSubtree(prefix [2]int, bound int64) (int64, []int, int) {
	n := t.Cfg.Cities
	s := tspSearch{dist: t.dist, minOut: t.minOut, best: bound, path: make([]int, 0, n)}
	s.path = append(s.path, 0, prefix[0])
	for j := 1; j < n; j++ {
		if j != prefix[0] {
			s.unvisited |= 1 << j
			s.rest += t.minOut[j]
		}
	}
	// The subtree's root is prefix[1], tested as the only child of prefix[0].
	s.expand(prefix[0], t.dist[0][prefix[0]], 1<<prefix[1])
	return s.best, s.bestTour, s.explored
}

// tspSearch is one subtree's depth-first branch and bound. A node's leaf test
// and lower bound are evaluated in its parent's loop, so a pruned node costs
// no call.
type tspSearch struct {
	dist   [][]int64
	minOut []int64

	path      []int  // cities from 0 to the node being expanded
	unvisited uint64 // bit j set: city j is not on path (bit 0 never set)
	rest      int64  // minOut summed over the unvisited cities

	best     int64
	bestTour []int
	explored int // nodes tested, pruned and leaf ones included
}

// expand tests each city in children, in ascending order, as the next stop
// after last (the end of path, reached at tour length length), and descends
// into those whose lower bound beats the incumbent.
func (s *tspSearch) expand(last int, length int64, children uint64) {
	n := len(s.minOut)
	leaf := len(s.path)+1 == n
	d := s.dist[last]
	for m := children; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		s.explored++
		nl := length + d[j]
		if leaf {
			if total := nl + s.dist[j][0]; total < s.best {
				s.best = total
				s.bestTour = make([]int, n)
				copy(s.bestTour, s.path)
				s.bestTour[n-1] = j
			}
			continue
		}
		// Lower bound: the child's length plus the cheapest exit from it and
		// from every city still unvisited after it, nl + minOut[j] +
		// (rest - minOut[j]), which is exactly nl + rest in integers.
		if nl+s.rest >= s.best {
			continue
		}
		s.unvisited &^= 1 << j
		s.rest -= s.minOut[j]
		s.path = append(s.path, j)
		s.expand(j, nl, s.unvisited)
		s.path = s.path[:len(s.path)-1]
		s.rest += s.minOut[j]
		s.unvisited |= 1 << j
	}
}

// Snapshot captures the role state (search structures are rebuilt from the
// deterministic configuration).
func (t *TSP) Snapshot() []byte {
	w := codec.NewWriter()
	w.Int(t.NextTask)
	w.Int(t.Released)
	w.I64(t.Best)
	w.Ints(t.BestTour)
	w.Int(t.Phase)
	w.Bool(t.Pending != nil)
	w.Bytes8(t.Pending)
	w.I64(t.Explored)
	return w.Bytes()
}

// StatePageSize exposes the snapshot's dirty-tracking granularity for
// incremental checkpointing (par.Paged): the role state is a handful of
// counters plus the incumbent tour, so pages are small.
func (t *TSP) StatePageSize() int { return 256 }

// Restore resets the role state from a snapshot.
func (t *TSP) Restore(data []byte) {
	r := codec.NewReader(data)
	t.NextTask = r.Int()
	t.Released = r.Int()
	t.Best = r.I64()
	t.BestTour = r.Ints()
	t.Phase = r.Int()
	hasPending := r.Bool()
	t.Pending = r.Bytes8()
	if !hasPending {
		t.Pending = nil
	}
	t.Explored = r.I64()
	if r.Err() != nil {
		panic(r.Err())
	}
}

// HeldKarp computes the exact optimum tour length by dynamic programming
// (the verification oracle).
func HeldKarp(cfg TSPConfig) int64 {
	d := tspDist(cfg)
	n := cfg.Cities
	const inf = int64(math.MaxInt64) / 4
	size := 1 << (n - 1) // subsets of cities 1..n-1
	dp := make([]int64, size*(n-1))
	for i := range dp {
		dp[i] = inf
	}
	at := func(mask, last int) *int64 { return &dp[mask*(n-1)+last-1] }
	for j := 1; j < n; j++ {
		*at(1<<(j-1), j) = d[0][j]
	}
	for mask := 1; mask < size; mask++ {
		for last := 1; last < n; last++ {
			if mask&(1<<(last-1)) == 0 {
				continue
			}
			cur := *at(mask, last)
			if cur >= inf {
				continue
			}
			for next := 1; next < n; next++ {
				if mask&(1<<(next-1)) != 0 {
					continue
				}
				nm := mask | 1<<(next-1)
				if v := cur + d[last][next]; v < *at(nm, next) {
					*at(nm, next) = v
				}
			}
		}
	}
	best := inf
	full := size - 1
	for last := 1; last < n; last++ {
		if v := *at(full, last) + d[last][0]; v < best {
			best = v
		}
	}
	return best
}
