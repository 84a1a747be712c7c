package apps

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/codec"
	"repro/internal/mp"
)

// IsingConfig parameterizes the spin-glass benchmark: an Edwards-Anderson
// model with Gaussian couplings on a periodic 2-D lattice.
type IsingConfig struct {
	L          int     // lattice is L x L, periodic; L divisible by ranks
	Sweeps     int     // Metropolis sweeps to run
	Temp       float64 // temperature
	Seed       uint64  // randomness seed (order-independent hashing)
	OpsPerSite float64 // abstract CPU ops charged per site update
	MagEvery   int     // sweeps between magnetization allreduces (0 = never)
}

// DefaultIsing returns the benchmark configuration used by the tables.
func DefaultIsing(l, sweeps int) IsingConfig {
	return IsingConfig{L: l, Sweeps: sweeps, Temp: 1.2, Seed: 0x15151, OpsPerSite: 400, MagEvery: 1}
}

// Ising simulates a 2-D spin glass with checkerboard Metropolis updates.
// Rows are block-distributed; each colour phase exchanges boundary spin rows
// with the ring neighbours. The quenched random couplings are part of each
// process's state (and so of its checkpoints), which is what gives the
// paper's ISING runs their checkpoint weight. Acceptance randomness is a
// pure hash of (seed, sweep, colour, site), making the dynamics independent
// of update order and therefore bit-comparable with the sequential
// reference.
type Ising struct {
	Cfg  IsingConfig
	Rank int
	Size int

	Sweep int         // completed sweeps
	Rows  [][]int8    // local block of spin rows
	JH    [][]float64 // JH[r][j]: coupling between (r,j) and (r,j+1 mod L)
	JV    [][]float64 // JV[r][j]: coupling between (r,j) and (r+1,j); r covers lo-1..hi-1
	Mag   float64     // last global magnetization observed

	lo, hi           int    // global row range
	haloUp, haloDown []int8 // received halo rows, reused every half-sweep
}

// coupling returns the quenched Gaussian coupling of a bond, identical for
// every rank and the sequential reference.
func coupling(cfg IsingConfig, dir, gi, j int) float64 {
	u1 := hash01(mix(cfg.Seed, 0x3a, uint64(dir), uint64(gi), uint64(j)))
	u2 := hash01(mix(cfg.Seed, 0x3b, uint64(dir), uint64(gi), uint64(j)))
	for u1 == 0 {
		u1 = 0.5
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// isingPlane holds every bond's coupling, indexed by direction and global
// row: [0][gi] the horizontal bonds of row gi, [1][gi] the vertical bonds from
// row gi to gi+1. Ranks alias its rows, so nothing writes a coupling row.
type isingPlane [2][][]float64

func newIsingPlane(cfg IsingConfig) *isingPlane {
	var p isingPlane
	for dir := range p {
		p[dir] = make([][]float64, cfg.L)
		for gi := range p[dir] {
			row := make([]float64, cfg.L)
			for j := range row {
				row[j] = coupling(cfg, dir, gi, j)
			}
			p[dir][gi] = row
		}
	}
	return &p
}

// newIsing builds rank's share of the lattice, initialized by hashing so all
// ranks agree with the sequential reference. Its coupling rows alias plane's,
// which IsingWorkload builds once for all its ranks.
func newIsing(rank, size int, cfg IsingConfig, plane *isingPlane) *Ising {
	g := &Ising{Cfg: cfg, Rank: rank, Size: size}
	g.lo, g.hi = blockRange(cfg.L, rank, size)
	r := g.hi - g.lo
	g.Rows = make([][]int8, r)
	g.JH = make([][]float64, r)
	g.JV = make([][]float64, r+1) // includes the bond row above the block
	for i := 0; i < r; i++ {
		g.Rows[i] = initialSpinRow(cfg, g.lo+i)
		g.JH[i] = plane[0][g.lo+i]
	}
	for i := 0; i <= r; i++ {
		g.JV[i] = plane[1][(g.lo+i-1+cfg.L)%cfg.L]
	}
	return g
}

func initialSpinRow(cfg IsingConfig, gi int) []int8 {
	row := make([]int8, cfg.L)
	for j := range row {
		if hash01(mix(cfg.Seed, 0xdead, uint64(gi), uint64(j))) < 0.5 {
			row[j] = -1
		} else {
			row[j] = 1
		}
	}
	return row
}

// IsingWorkload adapts the benchmark to the harness registry. The coupling
// plane and the sequential reference are each computed once and shared
// across the table's scheme runs: every rank Make builds aliases the plane's
// rows. A snapshot still carries a rank's couplings, so checkpoints weigh
// what they always did, and Restore gives the rank fresh rows of its own.
func IsingWorkload(cfg IsingConfig) Workload {
	var (
		once, planeOnce sync.Once
		cached          [][]int8
		plane           *isingPlane
	)
	return Workload{
		Name: fmt.Sprintf("ISING-%d", cfg.L),
		Make: func(rank, size int) mp.Program {
			// Make may run concurrently for independent cells.
			planeOnce.Do(func() { plane = newIsingPlane(cfg) })
			return newIsing(rank, size, cfg, plane)
		},
		Check: func(progs []mp.Program) error {
			// Checks of independent runs may execute concurrently; fill the
			// sequential-reference cache under a sync.Once.
			once.Do(func() { cached = SequentialIsing(cfg) })
			ref := cached
			for _, p := range progs {
				g := p.(*Ising)
				if g.Sweep != cfg.Sweeps {
					return fmt.Errorf("ising: rank %d stopped at sweep %d", g.Rank, g.Sweep)
				}
				for r, row := range g.Rows {
					gi := g.lo + r
					for j, s := range row {
						if s != ref[gi][j] {
							return fmt.Errorf("ising: spin (%d,%d) = %d, reference %d", gi, j, s, ref[gi][j])
						}
					}
				}
			}
			return nil
		},
	}
}

// Run executes the remaining sweeps (resuming from a restored Sweep count).
func (g *Ising) Run(e *mp.Env) {
	for g.Sweep < g.Cfg.Sweeps {
		sweep := g.Sweep
		for color := 0; color < 2; color++ {
			up, down := g.exchangeHalos(e)
			g.updateColor(sweep, color, up, down)
			sites := float64(len(g.Rows)*g.Cfg.L) / 2
			e.Compute(sites * g.Cfg.OpsPerSite)
		}
		g.Sweep++
		if g.Cfg.MagEvery > 0 && g.Sweep%g.Cfg.MagEvery == 0 {
			// An int sum of the ±1 spins is exact, as the float64 sum was.
			local := 0
			for _, row := range g.Rows {
				for _, s := range row {
					local += int(s)
				}
			}
			tot := e.AllReduceF64([]float64{float64(local)}, func(a, b float64) float64 { return a + b })
			g.Mag = tot[0] / float64(g.Cfg.L*g.Cfg.L)
		}
	}
}

// exchangeHalos swaps boundary spin rows with the ring neighbours and
// returns the halo rows above and below the local block. (Couplings are
// quenched and owned locally, so only spins travel.)
func (g *Ising) exchangeHalos(e *mp.Env) (up, down []int8) {
	if g.Size == 1 {
		last := len(g.Rows) - 1
		return g.Rows[last], g.Rows[0] // periodic wrap
	}
	upRank := (g.Rank + g.Size - 1) % g.Size
	downRank := (g.Rank + 1) % g.Size
	e.Send(upRank, tagHaloUp, i8bytes(g.Rows[0]))
	e.Send(downRank, tagHaloDown, i8bytes(g.Rows[len(g.Rows)-1]))
	g.haloUp = bytesI8(g.haloUp, e.Recv(upRank, tagHaloDown).Data)
	g.haloDown = bytesI8(g.haloDown, e.Recv(downRank, tagHaloUp).Data)
	return g.haloUp, g.haloDown
}

const (
	tagHaloUp   = 11
	tagHaloDown = 12
)

func i8bytes(row []int8) []byte {
	b := make([]byte, len(row))
	for i, v := range row {
		b[i] = byte(v)
	}
	return b
}

// bytesI8 decodes a halo row into dst's storage, growing it only when the
// capacity is short.
func bytesI8(dst []int8, b []byte) []int8 {
	row := resize(dst, len(b))
	for i, v := range b {
		row[i] = int8(v)
	}
	return row
}

// updateColor applies one Metropolis half-sweep to the sites of one colour.
func (g *Ising) updateColor(sweep, color int, up, down []int8) {
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
		k := isingRow{row: row, up: rowUp, down: rowDown,
			jh: g.JH[r], jvUp: g.JV[r], jvDown: g.JV[r+1], invT: invT}
		k.update(g.Cfg.Seed, sweep, color, gi)
	}
}

// isingRow is one lattice row with its neighbour rows and couplings, as the
// Metropolis kernel reads them. jh[j] couples (j, j+1 mod L) within the row;
// jvUp[j] and jvDown[j] couple column j to the rows above and below.
type isingRow struct {
	row, up, down    []int8
	jh, jvUp, jvDown []float64
	invT             float64
	pre              uint64 // mix(seed, sweep, colour, gi), set by update
}

// update applies one colour's Metropolis rule to the row gi in place, in
// ascending column order, which the sequential reference and every rank
// share. A site's acceptance draw is hash01(mixStep(pre, j)), the key
// mix(seed, sweep, colour, gi, j) with its prefix hashed once per row. The
// periodic ends j = 0 and j = L-1 are peeled so the interior loop reads
// j-1 and j+1 without a modulo.
func (k *isingRow) update(seed uint64, sweep, color, gi int) {
	k.pre = mix(seed, uint64(sweep), uint64(color), uint64(gi))
	L := len(k.row)
	j := (gi + color) % 2
	if j == 0 {
		k.site(0, L-1, 1%L)
		j = 2
	}
	for ; j < L-1; j += 2 {
		k.site(j, j-1, j+1)
	}
	if j == L-1 {
		k.site(j, j-1, 0)
	}
}

// site applies the Metropolis rule to column j, whose left and right
// neighbours are columns l and r.
func (k *isingRow) site(j, l, r int) {
	left := float64(k.row[l]) * k.jh[l]
	right := float64(k.row[r]) * k.jh[j]
	vert := float64(k.up[j])*k.jvUp[j] + float64(k.down[j])*k.jvDown[j]
	dE := 2 * float64(k.row[j]) * (left + right + vert)
	if dE <= 0 || accept(hash01(mixStep(k.pre, uint64(j))), dE*k.invT) {
		k.row[j] = -k.row[j]
	}
}

// accept reports u < math.Exp(-x) for u in [0, 1) and x >= 0, +Inf included
// (Temp = 0), calling math.Exp only where two cheap bounds cannot decide.
//
// For x >= 0, lo = 1-x <= e^-x <= hi = 1/(1+x+x²/2); the second holds because
// e^x is at least its first three Taylor terms. The margin: each bound takes
// at most four correctly rounded operations, so as computed it is within a
// relative 2⁻⁵⁰ of its exact value, and math.Exp is within an ulp (2⁻⁵²) of
// e^-x wherever e^-x is a normal number. Widening each bound by a relative
// 2⁻⁴⁰ therefore keeps lo <= math.Exp(-x) <= hi for the computed values:
//   - lo > 0 only for x < 1, where e^-x > 1/e is far from subnormal;
//   - where math.Exp(-x) is subnormal (708 < x < 746), hi is about
//     2/x² > 10⁻⁶, far above it; beyond, math.Exp(-x) is 0 and hi >= 0
//     (hi = 0 once x*x overflows, and for x = +Inf).
//
// So u < lo accepts and u >= hi rejects exactly as the comparison with
// math.Exp would, and between them math.Exp itself decides. u = 0 needs no
// case of its own: it accepts through lo for x < 1, rejects through hi = 0,
// and otherwise reaches math.Exp.
func accept(u, x float64) bool {
	const widen = 1.0 / (1 << 40)
	if u < (1-x)*(1-widen) {
		return true
	}
	if u >= (1+widen)/(1+x+x*x/2) {
		return false
	}
	return u < math.Exp(-x)
}

// Snapshot captures the sweep counter, the local spins and the quenched
// couplings (the process's full data state).
func (g *Ising) Snapshot() []byte {
	size := 3 * 8
	for _, row := range g.Rows {
		size += 8 + len(row)
	}
	for _, row := range g.JH {
		size += 8 + 8*len(row)
	}
	for _, row := range g.JV {
		size += 8 + 8*len(row)
	}
	w := codec.NewWriterSize(size)
	w.Int(g.Sweep)
	w.F64(g.Mag)
	w.Int(len(g.Rows))
	for _, row := range g.Rows {
		w.I8s(row)
	}
	for _, row := range g.JH {
		w.F64s(row)
	}
	for _, row := range g.JV {
		w.F64s(row)
	}
	return w.Bytes()
}

// StatePageSize exposes the snapshot's dirty-tracking granularity for
// incremental checkpointing (par.Paged): one coupling-row stride.
func (g *Ising) StatePageSize() int {
	if len(g.Rows) == 0 {
		return 0
	}
	return 8 * len(g.Rows[0])
}

// Restore resets the program to a snapshot taken at a sweep boundary.
func (g *Ising) Restore(data []byte) {
	r := codec.NewReader(data)
	g.Sweep = r.Int()
	g.Mag = r.F64()
	n := r.Int()
	g.Rows = make([][]int8, n)
	for i := range g.Rows {
		g.Rows[i] = r.I8s()
	}
	g.JH = make([][]float64, n)
	for i := range g.JH {
		g.JH[i] = r.F64s()
	}
	g.JV = make([][]float64, n+1)
	for i := range g.JV {
		g.JV[i] = r.F64s()
	}
	if r.Err() != nil {
		panic(r.Err())
	}
}

// SequentialIsing runs the reference implementation and returns the final
// grid. It must produce bit-identical spins to the distributed version.
func SequentialIsing(cfg IsingConfig) [][]int8 {
	L := cfg.L
	grid := make([][]int8, L)
	for gi := range grid {
		grid[gi] = initialSpinRow(cfg, gi)
	}
	plane := newIsingPlane(cfg)
	jh, jv := plane[0], plane[1]
	invT := 1 / cfg.Temp
	for sweep := 0; sweep < cfg.Sweeps; sweep++ {
		for color := 0; color < 2; color++ {
			// A colour's updates read only the opposite colour, so an
			// in-place scan in any order matches the distributed version.
			for gi := 0; gi < L; gi++ {
				giUp := (gi + L - 1) % L
				k := isingRow{row: grid[gi], up: grid[giUp], down: grid[(gi+1)%L],
					jh: jh[gi], jvUp: jv[giUp], jvDown: jv[gi], invT: invT}
				k.update(cfg.Seed, sweep, color, gi)
			}
		}
	}
	return grid
}
