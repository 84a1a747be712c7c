package apps

import (
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/mp"
)

// GaussConfig parameterizes the linear-solver benchmark.
type GaussConfig struct {
	N         int // system size; divisible by ranks
	Seed      uint64
	OpsPerRel float64 // abstract CPU ops per eliminated element
}

// DefaultGauss returns the benchmark configuration used by the tables.
func DefaultGauss(n int) GaussConfig {
	return GaussConfig{N: n, Seed: 0x6a55, OpsPerRel: 60}
}

// gaussElem returns element (i,j) of the deterministic, diagonally dominant
// system matrix; gaussRHS the right-hand side.
func gaussElem(cfg GaussConfig, i, j int) float64 {
	if i == j {
		return float64(cfg.N) + 4
	}
	return 2*hash01(mix(cfg.Seed, uint64(i), uint64(j))) - 1
}

func gaussRHS(cfg GaussConfig, i int) float64 {
	return 10 * (2*hash01(mix(cfg.Seed, 0xbeef, uint64(i))) - 1)
}

// Gauss solves a dense linear system by Gaussian elimination without
// pivoting (the generated matrix is diagonally dominant) with rows
// distributed cyclically across ranks — the classic layout that keeps load
// balanced as elimination shrinks the active submatrix. At step k the owner
// broadcasts the pivot row; back-substitution runs via a gather at rank 0
// followed by a broadcast of the solution.
type Gauss struct {
	Cfg  GaussConfig
	Rank int
	Size int

	K    int         // completed elimination steps
	Rows [][]float64 // augmented local rows (N+1 wide), cyclic: global row = Rank + i*Size
	X    []float64   // solution after back-substitution
	Done bool
}

// NewGauss builds rank's cyclic share of the augmented matrix.
func NewGauss(rank, size int, cfg GaussConfig) *Gauss {
	g := &Gauss{Cfg: cfg, Rank: rank, Size: size}
	for gi := rank; gi < cfg.N; gi += size {
		row := make([]float64, cfg.N+1)
		for j := 0; j < cfg.N; j++ {
			row[j] = gaussElem(cfg, gi, j)
		}
		row[cfg.N] = gaussRHS(cfg, gi)
		g.Rows = append(g.Rows, row)
	}
	return g
}

// GaussWorkload adapts the benchmark to the harness registry.
func GaussWorkload(cfg GaussConfig) Workload {
	return Workload{
		Name: fmt.Sprintf("GAUSS-%d", cfg.N),
		Make: func(rank, size int) mp.Program { return NewGauss(rank, size, cfg) },
		Check: func(progs []mp.Program) error {
			for _, p := range progs {
				g := p.(*Gauss)
				if !g.Done {
					return fmt.Errorf("gauss: rank %d did not finish", g.Rank)
				}
				if len(g.X) != cfg.N {
					return fmt.Errorf("gauss: rank %d has solution of size %d", g.Rank, len(g.X))
				}
				// Verify against the original system: max residual.
				for i := 0; i < cfg.N; i++ {
					sum := 0.0
					for j := 0; j < cfg.N; j++ {
						sum += gaussElem(cfg, i, j) * g.X[j]
					}
					if r := math.Abs(sum - gaussRHS(cfg, i)); r > 1e-8 {
						return fmt.Errorf("gauss: residual %g at row %d", r, i)
					}
				}
			}
			return nil
		},
	}
}

const tagGaussRow = 31

// Run executes the remaining elimination steps and the back-substitution.
func (g *Gauss) Run(e *mp.Env) {
	N := g.Cfg.N
	for g.K < N {
		k := g.K
		owner := k % g.Size
		var pivot []float64
		if g.Rank == owner {
			pivot = g.Rows[k/g.Size]
		}
		pivot = mp.DecodeF64s(e.Bcast(owner, mp.EncodeF64s(pivot)))
		elems := 0
		for i, row := range g.Rows {
			gi := g.Rank + i*g.Size
			if gi <= k {
				continue
			}
			f := row[k] / pivot[k]
			row[k] = 0
			for j := k + 1; j <= N; j++ {
				row[j] -= f * pivot[j]
			}
			elems += N - k
		}
		e.Compute(float64(elems) * g.Cfg.OpsPerRel)
		g.K++
	}
	if !g.Done {
		// Gather the triangular system at rank 0, solve, broadcast x.
		packed := codec.NewWriter()
		packed.Int(len(g.Rows))
		for i, row := range g.Rows {
			packed.Int(g.Rank + i*g.Size)
			packed.F64s(row)
		}
		all := e.Gather(0, packed.Bytes())
		var xs []float64
		if e.Rank == 0 {
			U := make([][]float64, N)
			for _, blob := range all {
				r := codec.NewReader(blob)
				cnt := r.Int()
				for c := 0; c < cnt; c++ {
					gi := r.Int()
					U[gi] = r.F64s()
				}
				if r.Err() != nil {
					panic(r.Err())
				}
			}
			xs = make([]float64, N)
			for i := N - 1; i >= 0; i-- {
				sum := U[i][N]
				for j := i + 1; j < N; j++ {
					sum -= U[i][j] * xs[j]
				}
				xs[i] = sum / U[i][i]
			}
			e.Compute(float64(N*N) / 2 * g.Cfg.OpsPerRel)
		}
		g.X = mp.DecodeF64s(e.Bcast(0, mp.EncodeF64s(xs)))
		g.Done = true
	}
}

// Snapshot captures the elimination progress and local rows.
func (g *Gauss) Snapshot() []byte {
	w := codec.NewWriter()
	w.Int(g.K)
	w.Bool(g.Done)
	w.F64s(g.X)
	w.Int(len(g.Rows))
	for _, row := range g.Rows {
		w.F64s(row)
	}
	return w.Bytes()
}

// StatePageSize exposes the snapshot's dirty-tracking granularity for
// incremental checkpointing (par.Paged): one encoded matrix row.
func (g *Gauss) StatePageSize() int {
	if len(g.Rows) == 0 {
		return 0
	}
	return 8 * len(g.Rows[0])
}

// Restore resets the program to a snapshot taken at a step boundary.
func (g *Gauss) Restore(data []byte) {
	r := codec.NewReader(data)
	g.K = r.Int()
	g.Done = r.Bool()
	g.X = r.F64s()
	n := r.Int()
	g.Rows = make([][]float64, n)
	for i := range g.Rows {
		g.Rows[i] = r.F64s()
	}
	if r.Err() != nil {
		panic(r.Err())
	}
}
