package rdg

import (
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/rng"
	"repro/internal/sim"
)

// intn draws a uniform int in [0,n), n > 0.
func intn(r *rng.RNG, n int) int { return int(r.Uint64() % uint64(n)) }

// randomGraph draws a random committed-checkpoint history: ranks checkpoint
// in a random interleaving, each checkpoint closing an interval in which the
// rank may have consumed messages from any other rank's intervals — including
// still-open ones, which is exactly what creates orphans.
func randomGraph(r *rng.RNG) *Graph {
	n := 2 + intn(r, 3)      // 2..4 ranks
	maxIdx := 1 + intn(r, 3) // 1..3 checkpoints per rank
	next := make([]int, n)
	var recs []ckpt.Record
	for ev, events := 0, 3+intn(r, 12); ev < events; ev++ {
		p := intn(r, n)
		if next[p] >= maxIdx {
			continue
		}
		next[p]++
		var deps []ckpt.Dep
		for d := intn(r, 3); d > 0; d-- {
			if q := intn(r, n); q != p {
				deps = append(deps, dep(q, intn(r, maxIdx+1)))
			}
		}
		recs = append(recs, rec(p, next[p], sim.Duration(ev+1), deps...))
	}
	return FromRecords(n, recs)
}

// forEachLine visits every line bounded componentwise by latest.
func forEachLine(latest []int, visit func([]int)) {
	line := make([]int, len(latest))
	for {
		visit(line)
		p := 0
		for p < len(line) {
			line[p]++
			if line[p] <= latest[p] {
				break
			}
			line[p] = 0
			p++
		}
		if p == len(line) {
			return
		}
	}
}

// TestRecoveryLineBruteForce holds RecoveryLine against exhaustive
// enumeration on hundreds of seeded random graphs. For every line bounded by
// the latest checkpoints it checks consistency directly from the edge set,
// then requires the computed line to
//
//   - be consistent itself (anything less rolled back keeps an orphan:
//     under-rollback),
//   - dominate every consistent line componentwise (no consistent line keeps
//     any rank even one checkpoint further forward: over-rollback), and
//   - equal the componentwise join of all consistent lines (it IS the most
//     recent consistent line, not merely an upper bound — the join is well
//     defined because consistent lines are closed under max).
//
// The graphs are small enough (≤ 4 ranks, ≤ 3 checkpoints each) that the
// enumeration is total: over the sampled graphs this is a proof, not a spot
// check. The rng seed makes any failure replayable verbatim.
func TestRecoveryLineBruteForce(t *testing.T) {
	r := rng.New(0x5EED_11E5)
	for trial := 0; trial < 400; trial++ {
		g := randomGraph(r)
		line := g.RecoveryLine()

		if !g.Consistent(line) {
			t.Fatalf("trial %d: under-rollback: line %v keeps orphans %v (edges %v)",
				trial, line, g.OrphanEdges(line), g.edges)
		}
		join := make([]int, g.n)
		forEachLine(g.Latest(), func(cand []int) {
			if !g.Consistent(cand) {
				return
			}
			for p, v := range cand {
				if v > line[p] {
					t.Fatalf("trial %d: over-rollback: consistent line %v exceeds computed %v at rank %d (edges %v)",
						trial, cand, line, p, g.edges)
				}
				if v > join[p] {
					join[p] = v
				}
			}
		})
		if !reflect.DeepEqual(join, line) {
			t.Fatalf("trial %d: line %v is not the join of consistent lines %v (edges %v)",
				trial, line, join, g.edges)
		}
	}
}
