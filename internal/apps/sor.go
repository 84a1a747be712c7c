package apps

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/codec"
	"repro/internal/mp"
)

// SORConfig parameterizes the Laplace solver benchmark.
type SORConfig struct {
	N          int     // grid is N x N; N divisible by ranks
	Iters      int     // red-black iterations
	Omega      float64 // overrelaxation factor
	OpsPerSite float64 // abstract CPU ops per site update
	ResEvery   int     // iterations between residual allreduces (0 = never)
}

// DefaultSOR returns the benchmark configuration used by the tables.
func DefaultSOR(n, iters int) SORConfig {
	return SORConfig{N: n, Iters: iters, Omega: 1.9, OpsPerSite: 500, ResEvery: 1}
}

// SOR solves Laplace's equation on a square grid with fixed boundary values
// (top edge 100, the rest 0) by red-black successive overrelaxation. Rows
// are block-distributed; every half-iteration exchanges halo rows.
type SOR struct {
	Cfg  SORConfig
	Rank int
	Size int

	Iter   int         // completed iterations
	Rows   [][]float64 // local rows, including any global boundary rows
	Res    float64     // last residual observed
	lo, hi int

	haloUp, haloDown []float64 // received halo rows, reused every exchange
}

// NewSOR builds rank's block of the grid.
func NewSOR(rank, size int, cfg SORConfig) *SOR {
	s := &SOR{Cfg: cfg, Rank: rank, Size: size}
	s.lo, s.hi = blockRange(cfg.N, rank, size)
	s.Rows = make([][]float64, s.hi-s.lo)
	for r := range s.Rows {
		s.Rows[r] = initialSORRow(cfg, s.lo+r)
	}
	return s
}

func initialSORRow(cfg SORConfig, gi int) []float64 {
	row := make([]float64, cfg.N)
	if gi == 0 {
		for j := range row {
			row[j] = 100
		}
	}
	return row
}

// SORWorkload adapts the benchmark to the harness registry. The sequential
// reference is computed once and cached across the table's scheme runs.
func SORWorkload(cfg SORConfig) Workload {
	var (
		once      sync.Once
		cachedRef [][]float64
	)
	return Workload{
		Name: fmt.Sprintf("SOR-%d", cfg.N),
		Make: func(rank, size int) mp.Program { return NewSOR(rank, size, cfg) },
		Check: func(progs []mp.Program) error {
			// Checks of independent runs may execute concurrently; fill the
			// sequential-reference cache under a sync.Once.
			once.Do(func() { cachedRef = SequentialSOR(cfg) })
			ref := cachedRef
			for _, p := range progs {
				s := p.(*SOR)
				if s.Iter != cfg.Iters {
					return fmt.Errorf("sor: rank %d stopped at iteration %d", s.Rank, s.Iter)
				}
				for r, row := range s.Rows {
					gi := s.lo + r
					for j, v := range row {
						if v != ref[gi][j] {
							return fmt.Errorf("sor: cell (%d,%d) = %g, reference %g", gi, j, v, ref[gi][j])
						}
					}
				}
			}
			return nil
		},
	}
}

// Run executes the remaining iterations.
func (s *SOR) Run(e *mp.Env) {
	for s.Iter < s.Cfg.Iters {
		for color := 0; color < 2; color++ {
			up, down := s.exchangeHalos(e)
			s.updateColor(color, up, down)
			sites := float64(len(s.Rows)*s.Cfg.N) / 2
			e.Compute(sites * s.Cfg.OpsPerSite)
		}
		s.Iter++
		if s.Cfg.ResEvery > 0 && s.Iter%s.Cfg.ResEvery == 0 {
			up, down := s.exchangeHalos(e)
			local := s.localResidual(up, down)
			tot := e.AllReduceF64([]float64{local}, func(a, b float64) float64 {
				return math.Max(a, b)
			})
			s.Res = tot[0]
		}
	}
}

// exchangeHalos swaps boundary rows with the block neighbours (non-periodic:
// the first and last blocks see no halo beyond the fixed boundary).
func (s *SOR) exchangeHalos(e *mp.Env) (up, down []float64) {
	if s.Rank > 0 {
		e.Send(s.Rank-1, tagHaloUp, mp.EncodeF64s(s.Rows[0]))
	}
	if s.Rank < s.Size-1 {
		e.Send(s.Rank+1, tagHaloDown, mp.EncodeF64s(s.Rows[len(s.Rows)-1]))
	}
	if s.Rank > 0 {
		s.haloUp = mp.DecodeF64sInto(s.haloUp, e.Recv(s.Rank-1, tagHaloDown).Data)
		up = s.haloUp
	}
	if s.Rank < s.Size-1 {
		s.haloDown = mp.DecodeF64sInto(s.haloDown, e.Recv(s.Rank+1, tagHaloUp).Data)
		down = s.haloDown
	}
	return up, down
}

// updateColor applies one red-black half-sweep. Boundary cells (global row
// 0, row N-1, and the first/last columns) hold fixed values.
func (s *SOR) updateColor(color int, up, down []float64) {
	N := s.Cfg.N
	om := s.Cfg.Omega
	for r, row := range s.Rows {
		gi := s.lo + r
		if gi == 0 || gi == N-1 {
			continue
		}
		rowUp := up
		if r > 0 {
			rowUp = s.Rows[r-1]
		}
		rowDown := down
		if r < len(s.Rows)-1 {
			rowDown = s.Rows[r+1]
		}
		start := (gi + color) % 2
		if start == 0 {
			start = 2 // column 0 is boundary; first interior cell of this parity
		}
		for j := start; j < N-1; j += 2 {
			row[j] += om / 4 * (rowUp[j] + rowDown[j] + row[j-1] + row[j+1] - 4*row[j])
		}
	}
}

// localResidual returns the max |Laplacian| over interior cells of the block.
func (s *SOR) localResidual(up, down []float64) float64 {
	N := s.Cfg.N
	res := 0.0
	for r, row := range s.Rows {
		gi := s.lo + r
		if gi == 0 || gi == N-1 {
			continue
		}
		rowUp := up
		if r > 0 {
			rowUp = s.Rows[r-1]
		}
		rowDown := down
		if r < len(s.Rows)-1 {
			rowDown = s.Rows[r+1]
		}
		for j := 1; j < N-1; j++ {
			if d := math.Abs(rowUp[j] + rowDown[j] + row[j-1] + row[j+1] - 4*row[j]); d > res {
				res = d
			}
		}
	}
	return res
}

// Snapshot captures the iteration counter and the local rows.
func (s *SOR) Snapshot() []byte {
	size := 3 * 8
	for _, row := range s.Rows {
		size += 8 + 8*len(row)
	}
	w := codec.NewWriterSize(size)
	w.Int(s.Iter)
	w.F64(s.Res)
	w.Int(len(s.Rows))
	for _, row := range s.Rows {
		w.F64s(row)
	}
	return w.Bytes()
}

// StatePageSize exposes the snapshot's dirty-tracking granularity for
// incremental checkpointing (par.Paged): one encoded grid row.
func (s *SOR) StatePageSize() int { return 8 * s.Size }

// Restore resets the program to a snapshot taken at an iteration boundary.
func (s *SOR) Restore(data []byte) {
	r := codec.NewReader(data)
	s.Iter = r.Int()
	s.Res = r.F64()
	n := r.Int()
	s.Rows = make([][]float64, n)
	for i := range s.Rows {
		s.Rows[i] = r.F64s()
	}
	if r.Err() != nil {
		panic(r.Err())
	}
}

// SequentialSOR runs the reference implementation; it matches the parallel
// version bit for bit (red-black updates of one colour read only the other
// colour, so update order within a half-sweep is immaterial).
func SequentialSOR(cfg SORConfig) [][]float64 {
	N := cfg.N
	grid := make([][]float64, N)
	for gi := range grid {
		grid[gi] = initialSORRow(cfg, gi)
	}
	om := cfg.Omega
	for it := 0; it < cfg.Iters; it++ {
		for color := 0; color < 2; color++ {
			for gi := 1; gi < N-1; gi++ {
				row := grid[gi]
				rowUp, rowDown := grid[gi-1], grid[gi+1]
				start := (gi + color) % 2
				if start == 0 {
					start = 2
				}
				for j := start; j < N-1; j += 2 {
					row[j] += om / 4 * (rowUp[j] + rowDown[j] + row[j-1] + row[j+1] - 4*row[j])
				}
			}
		}
	}
	return grid
}
