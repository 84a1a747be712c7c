package apps

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/codec"
	"repro/internal/mp"
)

// NBodyConfig parameterizes the gravitational simulation benchmark.
type NBodyConfig struct {
	N          int     // bodies; divisible by ranks
	Steps      int     // integration steps
	DT         float64 // time step
	Seed       uint64
	OpsPerPair float64 // abstract CPU ops per pairwise interaction
}

// DefaultNBody returns the benchmark configuration used by the tables.
func DefaultNBody(n, steps int) NBodyConfig {
	return NBodyConfig{N: n, Steps: steps, DT: 1e-3, Seed: 0xb0d1, OpsPerPair: 200}
}

// Body is one particle's dynamic state.
type Body struct {
	X, Y, Z    float64
	VX, VY, VZ float64
	Mass       float64
}

func initialBody(cfg NBodyConfig, i int) Body {
	u := func(k uint64) float64 { return hash01(mix(cfg.Seed, k, uint64(i))) }
	return Body{
		X: u(1) - 0.5, Y: u(2) - 0.5, Z: u(3) - 0.5,
		VX: 0.1 * (u(4) - 0.5), VY: 0.1 * (u(5) - 0.5), VZ: 0.1 * (u(6) - 0.5),
		Mass: 0.5 + u(7),
	}
}

// NBody integrates an all-pairs gravitational system. Bodies are
// block-distributed; each step the position/mass buffer travels around a
// ring so every rank accumulates forces from every block, in a fixed block
// order so the floating-point sums match the sequential reference exactly.
type NBody struct {
	Cfg  NBodyConfig
	Rank int
	Size int

	Step   int
	Bodies []Body // local block
	lo, hi int

	// Per-step scratch, reused every step: the force sums, and each block's
	// positions as the ring delivered them, indexed by owner.
	ax, ay, az []float64
	blocks     []blockSnapshot
}

// NewNBody builds rank's block of bodies.
func NewNBody(rank, size int, cfg NBodyConfig) *NBody {
	b := &NBody{Cfg: cfg, Rank: rank, Size: size}
	b.lo, b.hi = blockRange(cfg.N, rank, size)
	b.Bodies = make([]Body, b.hi-b.lo)
	for i := range b.Bodies {
		b.Bodies[i] = initialBody(cfg, b.lo+i)
	}
	return b
}

// NBodyWorkload adapts the benchmark to the harness registry. The sequential
// reference is computed once and cached across the table's scheme runs.
func NBodyWorkload(cfg NBodyConfig) Workload {
	var (
		once   sync.Once
		cached []Body
	)
	return Workload{
		Name: fmt.Sprintf("NBODY-%d", cfg.N),
		Make: func(rank, size int) mp.Program { return NewNBody(rank, size, cfg) },
		Check: func(progs []mp.Program) error {
			size := len(progs)
			// Checks of independent runs may execute concurrently; fill the
			// sequential-reference cache under a sync.Once.
			once.Do(func() { cached = SequentialNBody(cfg, size) })
			ref := cached
			for _, p := range progs {
				b := p.(*NBody)
				if b.Step != cfg.Steps {
					return fmt.Errorf("nbody: rank %d stopped at step %d", b.Rank, b.Step)
				}
				for i, body := range b.Bodies {
					want := ref[b.lo+i]
					if body != want {
						return fmt.Errorf("nbody: body %d = %+v, reference %+v", b.lo+i, body, want)
					}
				}
			}
			return nil
		},
	}
}

// blockSnapshot is the (position, mass) view shipped around the ring.
type blockSnapshot struct {
	X, Y, Z, Mass []float64
}

// positions fills s with the local bodies' positions and masses, reusing
// its storage.
func (b *NBody) positions(s *blockSnapshot) {
	n := len(b.Bodies)
	s.X, s.Y, s.Z, s.Mass = resize(s.X, n), resize(s.Y, n), resize(s.Z, n), resize(s.Mass, n)
	for i, body := range b.Bodies {
		s.X[i], s.Y[i], s.Z[i], s.Mass[i] = body.X, body.Y, body.Z, body.Mass
	}
}

func encodeBlock(owner int, s blockSnapshot) []byte {
	w := codec.NewWriterSize(8 + 4*8 + 8*(len(s.X)+len(s.Y)+len(s.Z)+len(s.Mass)))
	w.Int(owner)
	w.F64s(s.X)
	w.F64s(s.Y)
	w.F64s(s.Z)
	w.F64s(s.Mass)
	return w.Bytes()
}

// decodeBlock decodes a ring message into blocks[owner], reusing that
// block's storage, and returns the owner.
func decodeBlock(blocks []blockSnapshot, b []byte) int {
	r := codec.NewReader(b)
	owner := r.Int()
	s := &blocks[owner]
	s.X, s.Y, s.Z, s.Mass = r.F64sInto(s.X), r.F64sInto(s.Y), r.F64sInto(s.Z), r.F64sInto(s.Mass)
	if r.Err() != nil {
		panic(r.Err())
	}
	return owner
}

const tagRing = 21

// Run executes the remaining steps.
func (b *NBody) Run(e *mp.Env) {
	n := len(b.Bodies)
	b.ax, b.ay, b.az = resize(b.ax, n), resize(b.ay, n), resize(b.az, n)
	if len(b.blocks) != b.Size {
		b.blocks = make([]blockSnapshot, b.Size)
	}
	ax, ay, az, blocks := b.ax, b.ay, b.az, b.blocks
	for b.Step < b.Cfg.Steps {
		clear(ax)
		clear(ay)
		clear(az)
		// Accumulate over blocks in global block order 0..Size-1 so the sum
		// order is canonical. The ring rotation supplies block
		// (Rank - h) mod Size at hop h; buffer them and apply in order.
		b.positions(&blocks[b.Rank])
		curOwner := b.Rank
		right := (b.Rank + 1) % b.Size
		left := (b.Rank + b.Size - 1) % b.Size
		for h := 1; h < b.Size; h++ {
			e.Send(right, tagRing, encodeBlock(curOwner, blocks[curOwner]))
			curOwner = decodeBlock(blocks, e.Recv(left, tagRing).Data)
		}
		for blk := 0; blk < b.Size; blk++ {
			b.accumulate(ax, ay, az, blk, blocks[blk])
			e.Compute(float64(n*len(blocks[blk].X)) * b.Cfg.OpsPerPair)
		}
		dt := b.Cfg.DT
		for i := range b.Bodies {
			bd := &b.Bodies[i]
			bd.VX += ax[i] * dt
			bd.VY += ay[i] * dt
			bd.VZ += az[i] * dt
			bd.X += bd.VX * dt
			bd.Y += bd.VY * dt
			bd.Z += bd.VZ * dt
		}
		b.Step++
	}
}

// accumulate adds the gravitational pull of block blk onto the local bodies.
// Each body's sums are kept in locals across the block and added in the
// block's body order, so they round exactly as adding into ax/ay/az would.
func (b *NBody) accumulate(ax, ay, az []float64, blk int, s blockSnapshot) {
	const eps = 1e-4
	m := len(s.X)
	xs, ys, zs, ms := s.X, s.Y[:m], s.Z[:m], s.Mass[:m]
	ax, ay, az = ax[:len(b.Bodies)], ay[:len(b.Bodies)], az[:len(b.Bodies)]
	for i := range b.Bodies {
		bx, by, bz := b.Bodies[i].X, b.Bodies[i].Y, b.Bodies[i].Z
		self := b.lo + i - blk*m // the body's own index in the block, if it is there
		sx, sy, sz := ax[i], ay[i], az[i]
		for j, x := range xs {
			if j == self {
				continue
			}
			dx := x - bx
			dy := ys[j] - by
			dz := zs[j] - bz
			r2 := dx*dx + dy*dy + dz*dz + eps
			inv := ms[j] / (r2 * math.Sqrt(r2))
			sx += dx * inv
			sy += dy * inv
			sz += dz * inv
		}
		ax[i], ay[i], az[i] = sx, sy, sz
	}
}

// Snapshot captures the step counter and local bodies.
func (b *NBody) Snapshot() []byte {
	w := codec.NewWriterSize(2*8 + 7*8*len(b.Bodies))
	w.Int(b.Step)
	w.Int(len(b.Bodies))
	for _, bd := range b.Bodies {
		w.F64(bd.X)
		w.F64(bd.Y)
		w.F64(bd.Z)
		w.F64(bd.VX)
		w.F64(bd.VY)
		w.F64(bd.VZ)
		w.F64(bd.Mass)
	}
	return w.Bytes()
}

// StatePageSize exposes the snapshot's dirty-tracking granularity for
// incremental checkpointing (par.Paged): a bundle of 16 encoded bodies
// (7 float64 fields each).
func (b *NBody) StatePageSize() int { return 16 * 7 * 8 }

// Restore resets the program to a snapshot taken at a step boundary.
func (b *NBody) Restore(data []byte) {
	r := codec.NewReader(data)
	b.Step = r.Int()
	n := r.Int()
	b.Bodies = make([]Body, n)
	for i := range b.Bodies {
		bd := &b.Bodies[i]
		bd.X, bd.Y, bd.Z = r.F64(), r.F64(), r.F64()
		bd.VX, bd.VY, bd.VZ = r.F64(), r.F64(), r.F64()
		bd.Mass = r.F64()
	}
	if r.Err() != nil {
		panic(r.Err())
	}
}

// SequentialNBody integrates the full system, summing forces block by block
// in the same order as the parallel ring so results are bit-identical.
// blocks is the number of ranks the parallel run used.
func SequentialNBody(cfg NBodyConfig, blocks int) []Body {
	bodies := make([]Body, cfg.N)
	for i := range bodies {
		bodies[i] = initialBody(cfg, i)
	}
	per := cfg.N / blocks
	const eps = 1e-4
	for step := 0; step < cfg.Steps; step++ {
		ax := make([]float64, cfg.N)
		ay := make([]float64, cfg.N)
		az := make([]float64, cfg.N)
		// Positions are frozen for the whole step (the parallel version
		// ships pre-step positions around the ring).
		type pos struct{ x, y, z, m float64 }
		ps := make([]pos, cfg.N)
		for i, b := range bodies {
			ps[i] = pos{b.X, b.Y, b.Z, b.Mass}
		}
		for i := range bodies {
			for blk := 0; blk < blocks; blk++ {
				for j := blk * per; j < (blk+1)*per; j++ {
					if i == j {
						continue
					}
					dx := ps[j].x - ps[i].x
					dy := ps[j].y - ps[i].y
					dz := ps[j].z - ps[i].z
					r2 := dx*dx + dy*dy + dz*dz + eps
					inv := ps[j].m / (r2 * math.Sqrt(r2))
					ax[i] += dx * inv
					ay[i] += dy * inv
					az[i] += dz * inv
				}
			}
		}
		dt := cfg.DT
		for i := range bodies {
			b := &bodies[i]
			b.VX += ax[i] * dt
			b.VY += ay[i] * dt
			b.VZ += az[i] * dt
			b.X += b.VX * dt
			b.Y += b.VY * dt
			b.Z += b.VZ * dt
		}
	}
	return bodies
}
