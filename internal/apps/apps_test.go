package apps

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/mp"
	"repro/internal/par"
	"repro/internal/sim"
)

// runWorkload launches w on a default 8-node machine, optionally under a
// checkpointing scheme, and verifies the results with the workload's oracle.
func runWorkload(t *testing.T, wl Workload, v ckpt.Variant, interval sim.Duration) {
	t.Helper()
	m := par.NewMachine(par.DefaultConfig())
	if interval > 0 {
		sch := ckpt.New(v, ckpt.Options{Interval: interval})
		sch.Attach(m)
	}
	w := mp.NewWorld(m)
	progs := make([]mp.Program, m.NumNodes())
	for rank := range progs {
		progs[rank] = wl.Make(rank, m.NumNodes())
		w.Launch(rank, progs[rank])
	}
	if err := m.Run(); err != nil {
		t.Fatalf("%s: %v", wl.Name, err)
	}
	if err := wl.Check(progs); err != nil {
		t.Fatalf("%s: %v", wl.Name, err)
	}
}

func smallWorkloads() []Workload {
	return []Workload{
		IsingWorkload(DefaultIsing(64, 6)),
		SORWorkload(DefaultSOR(64, 8)),
		ASPWorkload(DefaultASP(64)),
		NBodyWorkload(DefaultNBody(64, 3)),
		GaussWorkload(DefaultGauss(64)),
		TSPWorkload(TSPConfig{Cities: 12, Seed: 0x75b, OpsPerNode: 900}),
		NQueensWorkload(DefaultNQueens(9)),
	}
}

func TestAllWorkloadsMatchReferences(t *testing.T) {
	for _, wl := range smallWorkloads() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) { runWorkload(t, wl, ckpt.Variant{}, 0) })
	}
}

func TestWorkloadsSurviveCheckpointing(t *testing.T) {
	// Results must be identical when a checkpointing scheme runs under the
	// application (failure-free runs only add overhead, never perturbation).
	for _, v := range []ckpt.Variant{ckpt.CoordNB, ckpt.CoordNBMS, ckpt.Indep, ckpt.IndepM} {
		for _, wl := range smallWorkloads() {
			wl, v := wl, v
			t.Run(wl.Name+"/"+v.String(), func(t *testing.T) {
				runWorkload(t, wl, v, 300*sim.Millisecond)
			})
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	// After running to completion, Snapshot -> Restore into a fresh instance
	// -> Snapshot must reproduce identical bytes.
	for _, wl := range smallWorkloads() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			m := par.NewMachine(par.DefaultConfig())
			w := mp.NewWorld(m)
			progs := make([]mp.Program, m.NumNodes())
			for rank := range progs {
				progs[rank] = wl.Make(rank, m.NumNodes())
				w.Launch(rank, progs[rank])
			}
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			for rank, p := range progs {
				snap := p.Snapshot()
				fresh := wl.Make(rank, m.NumNodes())
				fresh.Restore(snap)
				if again := fresh.Snapshot(); !bytes.Equal(snap, again) {
					t.Fatalf("rank %d snapshot not idempotent (%d vs %d bytes)", rank, len(snap), len(again))
				}
			}
		})
	}
}

func TestSnapshotSizesReflectState(t *testing.T) {
	// A node's ISING share of an LxL spin glass is ~17*L*L/8 bytes (1-byte
	// spins plus two float64 coupling planes); SOR is 8*N*N/8.
	g := NewIsing(0, 8, DefaultIsing(256, 1))
	want := 17 * 256 * 256 / 8
	if n := len(g.Snapshot()); n < want || n > want+8*256+1024 {
		t.Fatalf("ising snapshot %d bytes, want ≈%d", n, want)
	}
	s := NewSOR(0, 8, DefaultSOR(256, 1))
	if n := len(s.Snapshot()); n < 256*256 || n > 256*256+1024 {
		t.Fatalf("sor snapshot %d bytes", n)
	}
}

func TestSequentialNQueensKnownCounts(t *testing.T) {
	for n, want := range map[int]int64{4: 2, 6: 4, 8: 92, 10: 724} {
		if got := SequentialNQueens(n); got != want {
			t.Errorf("N=%d: %d, want %d", n, got, want)
		}
	}
}

func TestCountFromPrefixSumsToTotal(t *testing.T) {
	for _, n := range []int{6, 8, 9} {
		q := NewNQueens(0, 2, NQueensConfig{N: n})
		var total int64
		for _, task := range q.tasks {
			c, _ := countFromPrefix(n, task)
			total += c
		}
		if want := SequentialNQueens(n); total != want {
			t.Errorf("N=%d: prefix sum %d, want %d", n, total, want)
		}
	}
}

func TestHeldKarpAgainstBruteForce(t *testing.T) {
	cfg := TSPConfig{Cities: 8, Seed: 0x75b}
	d := tspDist(cfg)
	// Brute force over permutations of 1..7.
	perm := []int{1, 2, 3, 4, 5, 6, 7}
	best := int64(math.MaxInt64)
	var rec func(k int)
	rec = func(k int) {
		if k == len(perm) {
			length := d[0][perm[0]]
			for i := 0; i < len(perm)-1; i++ {
				length += d[perm[i]][perm[i+1]]
			}
			length += d[perm[len(perm)-1]][0]
			if length < best {
				best = length
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	if got := HeldKarp(cfg); got != best {
		t.Fatalf("HeldKarp = %d, brute force = %d", got, best)
	}
}

func TestTSPSearchSubtreeRespectsBound(t *testing.T) {
	cfg := TSPConfig{Cities: 10, Seed: 0x1}
	tt := NewTSP(1, 2, cfg)
	opt := HeldKarp(cfg)
	// Searching every subtree with a loose bound must find the optimum.
	best := int64(math.MaxInt64)
	for _, task := range tt.tasks {
		if l, tour, _ := tt.searchSubtree(task, best); l < best {
			best = l
			if got := tourLength(tt.dist, tour); got != l {
				t.Fatalf("claimed %d but tour measures %d", l, got)
			}
		}
	}
	if best != opt {
		t.Fatalf("subtree union found %d, optimum %d", best, opt)
	}
}

func TestSORConvergesTowardHarmonic(t *testing.T) {
	cfg := DefaultSOR(32, 400)
	grid := SequentialSOR(cfg)
	// After many iterations the interior satisfies the discrete Laplace
	// equation approximately.
	worst := 0.0
	for i := 1; i < cfg.N-1; i++ {
		for j := 1; j < cfg.N-1; j++ {
			r := math.Abs(grid[i-1][j] + grid[i+1][j] + grid[i][j-1] + grid[i][j+1] - 4*grid[i][j])
			if r > worst {
				worst = r
			}
		}
	}
	if worst > 1e-3 {
		t.Fatalf("residual after 400 iters = %g", worst)
	}
}

func TestASPTriangleInequalityAndDiagonal(t *testing.T) {
	cfg := DefaultASP(48)
	d := SequentialASP(cfg)
	n := cfg.N
	for i := 0; i < n; i++ {
		if d[i][i] != 0 {
			t.Fatalf("d[%d][%d] = %d", i, i, d[i][i])
		}
	}
	for i := 0; i < n; i += 7 {
		for j := 0; j < n; j += 5 {
			for k := 0; k < n; k += 11 {
				if d[i][k] < aspInf && d[k][j] < aspInf && d[i][j] > d[i][k]+d[k][j] {
					t.Fatalf("triangle violated at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestGaussSequentialResidual(t *testing.T) {
	cfg := DefaultGauss(64)
	x := SequentialGauss(cfg)
	for i := 0; i < cfg.N; i++ {
		sum := 0.0
		for j := 0; j < cfg.N; j++ {
			sum += gaussElem(cfg, i, j) * x[j]
		}
		if r := math.Abs(sum - gaussRHS(cfg, i)); r > 1e-9 {
			t.Fatalf("residual %g at row %d", r, i)
		}
	}
}

func TestNBodyEnergyScaleStable(t *testing.T) {
	// Sanity: the integrator should not blow up over the benchmark horizon.
	cfg := DefaultNBody(64, 20)
	bodies := SequentialNBody(cfg, 8)
	for i, b := range bodies {
		if math.IsNaN(b.X) || math.Abs(b.X) > 100 {
			t.Fatalf("body %d diverged: %+v", i, b)
		}
	}
}

func TestIsingMagnetizationBounded(t *testing.T) {
	cfg := DefaultIsing(64, 10)
	grid := SequentialIsing(cfg)
	sum := 0
	for _, row := range grid {
		for _, s := range row {
			if s != 1 && s != -1 {
				t.Fatalf("invalid spin %d", s)
			}
			sum += int(s)
		}
	}
	if m := math.Abs(float64(sum)) / float64(cfg.L*cfg.L); m > 0.9 {
		t.Fatalf("magnetization %v suspiciously saturated at T=2.0", m)
	}
}

func TestBlockRange(t *testing.T) {
	lo, hi := blockRange(64, 3, 8)
	if lo != 24 || hi != 32 {
		t.Fatalf("blockRange = [%d,%d)", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("indivisible blockRange did not panic")
		}
	}()
	blockRange(10, 0, 3)
}

func TestHash01DeterministicAndUniform(t *testing.T) {
	if hash01(mix(1, 2, 3)) != hash01(mix(1, 2, 3)) {
		t.Fatal("hash01 not deterministic")
	}
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += hash01(mix(42, uint64(i)))
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("hash01 mean = %v", mean)
	}
}

// SequentialGauss solves the same system directly (the cross-check
// the distributed solver is tested against).
func SequentialGauss(cfg GaussConfig) []float64 {
	N := cfg.N
	a := make([][]float64, N)
	for i := range a {
		row := make([]float64, N+1)
		for j := 0; j < N; j++ {
			row[j] = gaussElem(cfg, i, j)
		}
		row[N] = gaussRHS(cfg, i)
		a[i] = row
	}
	for k := 0; k < N; k++ {
		for i := k + 1; i < N; i++ {
			f := a[i][k] / a[k][k]
			a[i][k] = 0
			for j := k + 1; j <= N; j++ {
				a[i][j] -= f * a[k][j]
			}
		}
	}
	x := make([]float64, N)
	for i := N - 1; i >= 0; i-- {
		sum := a[i][N]
		for j := i + 1; j < N; j++ {
			sum -= a[i][j] * x[j]
		}
		x[i] = sum / a[i][i]
	}
	return x
}
