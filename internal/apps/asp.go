package apps

import (
	"fmt"
	"sync"

	"repro/internal/codec"
	"repro/internal/mp"
)

// ASPConfig parameterizes the all-pairs-shortest-paths benchmark.
type ASPConfig struct {
	N         int    // graph vertices; N divisible by ranks
	Seed      uint64 // random graph seed
	MaxWeight int    // edge weights in [1, MaxWeight]; sparsity via Density
	Density   float64
	OpsPerRel float64 // abstract CPU ops per relaxation
}

// DefaultASP returns the benchmark configuration used by the tables.
func DefaultASP(n int) ASPConfig {
	return ASPConfig{N: n, Seed: 0xa59, MaxWeight: 100, Density: 0.3, OpsPerRel: 40}
}

const aspInf = 1 << 30

// aspEdge returns the deterministic weight of edge (i,j), or aspInf.
func aspEdge(cfg ASPConfig, i, j int) int64 {
	if i == j {
		return 0
	}
	h := hash01(mix(cfg.Seed, uint64(i), uint64(j)))
	if h >= cfg.Density {
		return aspInf
	}
	return 1 + int64(hash01(mix(cfg.Seed, 0x77, uint64(i), uint64(j)))*float64(cfg.MaxWeight))
}

// ASP solves all-pairs shortest paths with Floyd's algorithm. Rows are
// block-distributed; at step k the owner of row k broadcasts it and every
// rank relaxes its rows — the communication pattern the paper's ASP uses.
type ASP struct {
	Cfg  ASPConfig
	Rank int
	Size int

	K      int // completed pivot steps
	Rows   [][]int64
	lo, hi int
}

// NewASP builds rank's block of the distance matrix.
func NewASP(rank, size int, cfg ASPConfig) *ASP {
	a := &ASP{Cfg: cfg, Rank: rank, Size: size}
	a.lo, a.hi = blockRange(cfg.N, rank, size)
	a.Rows = make([][]int64, a.hi-a.lo)
	for r := range a.Rows {
		gi := a.lo + r
		row := make([]int64, cfg.N)
		for j := range row {
			row[j] = aspEdge(cfg, gi, j)
		}
		a.Rows[r] = row
	}
	return a
}

// ASPWorkload adapts the benchmark to the harness registry. The sequential
// reference is computed once and cached across the table's scheme runs.
func ASPWorkload(cfg ASPConfig) Workload {
	var (
		once   sync.Once
		cached [][]int64
	)
	return Workload{
		Name: fmt.Sprintf("ASP-%d", cfg.N),
		Make: func(rank, size int) mp.Program { return NewASP(rank, size, cfg) },
		Check: func(progs []mp.Program) error {
			// Checks of independent runs may execute concurrently; fill the
			// sequential-reference cache under a sync.Once.
			once.Do(func() { cached = SequentialASP(cfg) })
			ref := cached
			for _, p := range progs {
				a := p.(*ASP)
				if a.K != cfg.N {
					return fmt.Errorf("asp: rank %d stopped at step %d", a.Rank, a.K)
				}
				for r, row := range a.Rows {
					gi := a.lo + r
					for j, v := range row {
						if v != ref[gi][j] {
							return fmt.Errorf("asp: dist(%d,%d) = %d, reference %d", gi, j, v, ref[gi][j])
						}
					}
				}
			}
			return nil
		},
	}
}

// Run executes the remaining pivot steps.
func (a *ASP) Run(e *mp.Env) {
	N := a.Cfg.N
	rowsPer := N / a.Size
	for a.K < N {
		k := a.K
		owner := k / rowsPer
		var pivot []int64
		if a.Rank == owner {
			pivot = a.Rows[k-a.lo]
		}
		data := e.Bcast(owner, encodeI64s(pivot))
		pivot = decodeI64s(data)
		for _, row := range a.Rows {
			relaxRow(row, pivot, k)
		}
		e.Compute(float64(len(a.Rows)*N) * a.Cfg.OpsPerRel)
		a.K++
	}
}

// relaxRow applies pivot step k of Floyd's algorithm to one distance row:
// row[j] = min(row[j], row[k] + pivot[j]). A row that cannot reach k is
// left alone.
func relaxRow(row, pivot []int64, k int) {
	dik := row[k]
	if dik >= aspInf {
		return
	}
	row = row[:len(pivot)]
	for j, dkj := range pivot {
		row[j] = min(row[j], dik+dkj)
	}
}

func encodeI64s(vs []int64) []byte {
	w := codec.NewWriterSize(8 + 8*len(vs))
	w.I64s(vs)
	return w.Bytes()
}

func decodeI64s(b []byte) []int64 {
	r := codec.NewReader(b)
	vs := r.I64s()
	if r.Err() != nil {
		panic(r.Err())
	}
	return vs
}

// Snapshot captures the step counter and local rows.
func (a *ASP) Snapshot() []byte {
	size := 2 * 8
	for _, row := range a.Rows {
		size += 8 + 8*len(row)
	}
	w := codec.NewWriterSize(size)
	w.Int(a.K)
	w.Int(len(a.Rows))
	for _, row := range a.Rows {
		w.I64s(row)
	}
	return w.Bytes()
}

// StatePageSize exposes the snapshot's dirty-tracking granularity for
// incremental checkpointing (par.Paged): one encoded distance row.
func (a *ASP) StatePageSize() int {
	if len(a.Rows) == 0 {
		return 0
	}
	return 8 * len(a.Rows[0])
}

// Restore resets the program to a snapshot taken at a step boundary.
func (a *ASP) Restore(data []byte) {
	r := codec.NewReader(data)
	a.K = r.Int()
	n := r.Int()
	a.Rows = make([][]int64, n)
	for i := range a.Rows {
		a.Rows[i] = r.I64s()
	}
	if r.Err() != nil {
		panic(r.Err())
	}
}

// SequentialASP runs Floyd's algorithm on the full matrix.
func SequentialASP(cfg ASPConfig) [][]int64 {
	N := cfg.N
	d := make([][]int64, N)
	for i := range d {
		row := make([]int64, N)
		for j := range row {
			row[j] = aspEdge(cfg, i, j)
		}
		d[i] = row
	}
	for k := 0; k < N; k++ {
		for _, row := range d {
			relaxRow(row, d[k], k)
		}
	}
	return d
}
