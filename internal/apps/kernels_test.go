package apps

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// relaxRowRef is ASP's row relaxation as it was before relaxRow: a branch
// per element that stores only a strictly shorter distance.
func relaxRowRef(row, pivot []int64, k int) {
	dik := row[k]
	if dik >= aspInf {
		return
	}
	for j, dkj := range pivot {
		if nd := dik + dkj; nd < row[j] {
			row[j] = nd
		}
	}
}

// accumulateRef is NBody.accumulate as it was before the sums moved into
// locals: every pairwise term added straight into ax/ay/az, the self pair
// found by comparing global indexes.
func (b *NBody) accumulateRef(ax, ay, az []float64, blk int, s blockSnapshot) {
	const eps = 1e-4
	for i := range b.Bodies {
		bi := &b.Bodies[i]
		gi := b.lo + i
		for j := range s.X {
			gj := blk*len(s.X) + j
			if gi == gj {
				continue
			}
			dx := s.X[j] - bi.X
			dy := s.Y[j] - bi.Y
			dz := s.Z[j] - bi.Z
			r2 := dx*dx + dy*dy + dz*dz + eps
			inv := s.Mass[j] / (r2 * math.Sqrt(r2))
			ax[i] += dx * inv
			ay[i] += dy * inv
			az[i] += dz * inv
		}
	}
}

// TestASPRelaxRowMatchesLoop: relaxRow leaves every row exactly as the
// branching loop does, unreachable entries (aspInf) in the row and the
// pivot included, across every pivot step of a real matrix.
func TestASPRelaxRowMatchesLoop(t *testing.T) {
	for _, n := range []int{1, 2, 7, 32} {
		for _, density := range []float64{0.05, 0.3, 1} {
			cfg := ASPConfig{N: n, Seed: uint64(n), MaxWeight: 100, Density: density}
			got, want := NewASP(0, 1, cfg).Rows, NewASP(0, 1, cfg).Rows
			for k := 0; k < n; k++ {
				pivotGot, pivotWant := slices.Clone(got[k]), slices.Clone(want[k])
				for i := range got {
					relaxRow(got[i], pivotGot, k)
					relaxRowRef(want[i], pivotWant, k)
				}
				if !slices.EqualFunc(got, want, slices.Equal) {
					t.Fatalf("n=%d density=%g: rows differ after pivot step %d", n, density, k)
				}
			}
		}
	}
}

// TestNBodyAccumulateMatchesReference: accumulate's sums are bit-identical
// to the reference's, for the rank's own block (the self pairs skipped) and
// every other, from non-zero running sums, for several rank counts.
func TestNBodyAccumulateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, size := range []int{1, 2, 4} {
		cfg := DefaultNBody(32, 1)
		per := cfg.N / size
		for rank := 0; rank < size; rank++ {
			b := NewNBody(rank, size, cfg)
			got := make([][]float64, 3)
			for c := range got {
				got[c] = make([]float64, per)
				for i := range got[c] {
					got[c][i] = rng.NormFloat64()
				}
			}
			want := [][]float64{slices.Clone(got[0]), slices.Clone(got[1]), slices.Clone(got[2])}
			for blk := 0; blk < size; blk++ {
				var s blockSnapshot
				NewNBody(blk, size, cfg).positions(&s)
				b.accumulate(got[0], got[1], got[2], blk, s)
				b.accumulateRef(want[0], want[1], want[2], blk, s)
				for c := range got {
					if !slices.Equal(got[c], want[c]) {
						t.Fatalf("size %d rank %d block %d: sums differ from the reference", size, rank, blk)
					}
				}
			}
		}
	}
}

// countFromPrefixRef is NQUEENS' kernel as it was before queensFrom: a
// heap-allocated recursive closure that visits every leaf at row n.
func countFromPrefixRef(n int, prefix [2]int) (count int64, explored int) {
	all := (1 << n) - 1
	var rec func(row, cols, diag1, diag2 int)
	rec = func(row, cols, diag1, diag2 int) {
		explored++
		if row == n {
			count++
			return
		}
		free := all &^ (cols | diag1 | diag2)
		for free != 0 {
			bit := free & -free
			free ^= bit
			rec(row+1, cols|bit, (diag1|bit)<<1&all, (diag2|bit)>>1)
		}
	}
	c1 := 1 << prefix[0]
	c2 := 1 << prefix[1]
	cols := c1 | c2
	diag1 := (c1<<1 | c2) << 1 & all
	diag2 := (c1>>1 | c2) >> 1
	rec(2, cols, diag1, diag2)
	return count, explored
}

// TestNQueensKernelMatchesReference: countFromPrefix's count and explored
// nodes — which set the virtual compute time of every task — equal the
// closure kernel's for every two-queen prefix of every board from 4 to 12:
// the generator's tasks and the pairs its filters drop alike.
func TestNQueensKernelMatchesReference(t *testing.T) {
	for n := 4; n <= 12; n++ {
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				task := [2]int{a, b}
				count, explored := countFromPrefix(n, task)
				wantCount, wantExplored := countFromPrefixRef(n, task)
				if count != wantCount || explored != wantExplored {
					t.Fatalf("n=%d prefix %v: %d solutions over %d nodes, the reference %d over %d",
						n, task, count, explored, wantCount, wantExplored)
				}
			}
		}
	}
}

// TestAllocsNQueensKernel: a task's search allocates nothing (the closure
// kernel allocated its recursive func value and the two counters it captured).
func TestAllocsNQueensKernel(t *testing.T) {
	if allocs := testing.AllocsPerRun(20, func() { countFromPrefix(10, [2]int{0, 2}) }); allocs != 0 {
		t.Fatalf("countFromPrefix allocates %.1f objects per task, want 0", allocs)
	}
}

// TestAllocsNQueensMemoHit: a task its workload already counted is served
// from the memo without allocating.
func TestAllocsNQueensMemoHit(t *testing.T) {
	q := NQueensWorkload(DefaultNQueens(10)).Make(1, 2).(*NQueens)
	q.job(0)
	if allocs := testing.AllocsPerRun(20, func() { q.job(0) }); allocs != 0 {
		t.Fatalf("a memo hit allocates %.1f objects, want 0", allocs)
	}
}
