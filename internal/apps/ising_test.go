package apps

import (
	"math"
	"slices"
	"testing"
)

// updateColorRef is updateColor as it was before the row kernel: the full
// five-coordinate hash, the modulo neighbour indexes and an unguarded
// math.Exp at every site.
func (g *Ising) updateColorRef(sweep, color int, up, down []int8) {
	L := g.Cfg.L
	invT := 1 / g.Cfg.Temp
	for r, row := range g.Rows {
		gi := g.lo + r
		rowUp := up
		if r > 0 {
			rowUp = g.Rows[r-1]
		}
		rowDown := down
		if r < len(g.Rows)-1 {
			rowDown = g.Rows[r+1]
		}
		jh := g.JH[r]
		jvUp := g.JV[r]     // bond to the row above
		jvDown := g.JV[r+1] // bond to the row below
		start := (gi + color) % 2
		for j := start; j < L; j += 2 {
			left := float64(row[(j+L-1)%L]) * jh[(j+L-1)%L]
			right := float64(row[(j+1)%L]) * jh[j]
			vert := float64(rowUp[j])*jvUp[j] + float64(rowDown[j])*jvDown[j]
			dE := 2 * float64(row[j]) * (left + right + vert)
			if dE <= 0 ||
				hash01(mix(g.Cfg.Seed, uint64(sweep), uint64(color), uint64(gi), uint64(j))) < math.Exp(-dE*invT) {
				row[j] = -row[j]
			}
		}
	}
}

// sequentialIsingRef is SequentialIsing with the same retired site loop.
func sequentialIsingRef(cfg IsingConfig) [][]int8 {
	L := cfg.L
	grid := make([][]int8, L)
	jh := make([][]float64, L)
	jv := make([][]float64, L)
	for gi := range grid {
		grid[gi] = initialSpinRow(cfg, gi)
		jh[gi] = make([]float64, L)
		jv[gi] = make([]float64, L)
		for j := 0; j < L; j++ {
			jh[gi][j] = coupling(cfg, 0, gi, j)
			jv[gi][j] = coupling(cfg, 1, gi, j)
		}
	}
	invT := 1 / cfg.Temp
	for sweep := 0; sweep < cfg.Sweeps; sweep++ {
		for color := 0; color < 2; color++ {
			for gi := 0; gi < L; gi++ {
				giUp := (gi + L - 1) % L
				rowUp := grid[giUp]
				rowDown := grid[(gi+1)%L]
				row := grid[gi]
				start := (gi + color) % 2
				for j := start; j < L; j += 2 {
					left := float64(row[(j+L-1)%L]) * jh[gi][(j+L-1)%L]
					right := float64(row[(j+1)%L]) * jh[gi][j]
					vert := float64(rowUp[j])*jv[giUp][j] + float64(rowDown[j])*jv[gi][j]
					dE := 2 * float64(row[j]) * (left + right + vert)
					if dE <= 0 ||
						hash01(mix(cfg.Seed, uint64(sweep), uint64(color), uint64(gi), uint64(j))) < math.Exp(-dE*invT) {
						row[j] = -row[j]
					}
				}
			}
		}
	}
	return grid
}

// halos returns copies of the rows above and below rank's block, as
// exchangeHalos would receive them.
func halos(ranks []*Ising, rank int) (up, down []int8) {
	size := len(ranks)
	above := ranks[(rank+size-1)%size].Rows
	below := ranks[(rank+1)%size].Rows
	return append([]int8(nil), above[len(above)-1]...), append([]int8(nil), below[0]...)
}

// TestIsingKernelMatchesReference: the row kernel must flip exactly the spins
// the retired site loop flips, after every half-sweep, at every temperature
// (T = 0 makes every uphill exponent +Inf), on lattices down to L = 2 where
// both peeled ends are the whole row, and for every rank count.
func TestIsingKernelMatchesReference(t *testing.T) {
	const sweeps = 3
	for seed := uint64(1); seed <= 4; seed++ {
		for _, L := range []int{2, 4, 6, 16, 64} {
			for _, temp := range []float64{0, 0.1, 1.2, 5} {
				cfg := IsingConfig{L: L, Sweeps: sweeps, Temp: temp, Seed: seed}
				for _, size := range []int{1, 2, 4} {
					if L%size != 0 {
						continue
					}
					got := make([]*Ising, size)
					want := make([]*Ising, size)
					for r := range got {
						got[r], want[r] = NewIsing(r, size, cfg), NewIsing(r, size, cfg)
					}
					for sweep := 0; sweep < sweeps; sweep++ {
						for color := 0; color < 2; color++ {
							gotHalos := make([][2][]int8, size)
							wantHalos := make([][2][]int8, size)
							for r := range got {
								gotHalos[r][0], gotHalos[r][1] = halos(got, r)
								wantHalos[r][0], wantHalos[r][1] = halos(want, r)
							}
							for r := range got {
								got[r].updateColor(sweep, color, gotHalos[r][0], gotHalos[r][1])
								want[r].updateColorRef(sweep, color, wantHalos[r][0], wantHalos[r][1])
							}
							for r := range got {
								for i, row := range got[r].Rows {
									if ref := want[r].Rows[i]; !slices.Equal(row, ref) {
										t.Fatalf("seed %d L %d T %g ranks %d sweep %d colour %d: rank %d row %d = %v, reference %v",
											seed, L, temp, size, sweep, color, r, i, row, ref)
									}
								}
							}
						}
					}
				}
				for s := 1; s <= sweeps; s++ {
					c := cfg
					c.Sweeps = s
					if !slices.EqualFunc(SequentialIsing(c), sequentialIsingRef(c), slices.Equal) {
						t.Fatalf("seed %d L %d T %g: SequentialIsing after %d sweeps differs from the reference", seed, L, temp, s)
					}
				}
			}
		}
	}
}

// FuzzMetropolisAccept: the guarded acceptance decides exactly as comparing
// with math.Exp does, for every draw u in [0, 1) and exponent x >= 0. Each
// input is also tried with u at math.Exp(-x) and its neighbours, where a
// bound too tight by one rounding would show.
func FuzzMetropolisAccept(f *testing.F) {
	sub := math.SmallestNonzeroFloat64
	for _, seed := range [][2]float64{
		{0, 1}, {0.5, 0}, {0.5, sub}, {sub, 1}, {sub, 745}, {0, 745}, {0, 745.2},
		{0.3, math.Inf(1)}, {0, math.Inf(1)}, {0.5, 1e-9}, {0.999999, 1e-12},
		{1e-308, 708}, {1e-308, 708.4}, {3e-308, 708.39}, {0.36, 1}, {0.9, 0.1},
		{0.2, 2}, {1e-300, 1e200},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, u, x float64) {
		if !(x >= 0) {
			return
		}
		check := func(u float64) {
			if !(u >= 0 && u < 1) {
				return
			}
			if got, want := accept(u, x), u < math.Exp(-x); got != want {
				t.Fatalf("accept(%v, %v) = %v, u < math.Exp(-x) = %v", u, x, got, want)
			}
		}
		check(u)
		e := math.Exp(-x)
		check(e)
		check(math.Nextafter(e, 0))
		check(math.Nextafter(e, 1))
	})
}

// TestAllocsIsingUpdateColor: a half-sweep allocates nothing.
func TestAllocsIsingUpdateColor(t *testing.T) {
	g := NewIsing(1, 4, DefaultIsing(64, 1))
	up, down := make([]int8, 64), make([]int8, 64)
	for j := range up {
		up[j], down[j] = 1, -1
	}
	color := 0
	allocs := testing.AllocsPerRun(50, func() {
		g.updateColor(0, color, up, down)
		color ^= 1
	})
	if allocs != 0 {
		t.Fatalf("updateColor allocates %.1f objects per half-sweep, want 0", allocs)
	}
}

// BenchmarkIsingHalfSweep is one colour of a 256x256 lattice on one rank.
func BenchmarkIsingHalfSweep(b *testing.B) {
	g := NewIsing(0, 1, DefaultIsing(256, 1))
	last := len(g.Rows) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.updateColor(i/2, i%2, g.Rows[last], g.Rows[0])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*256*128), "ns/site")
}
