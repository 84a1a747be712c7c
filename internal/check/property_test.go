package check

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/ckpt"
	"repro/internal/par"
	"repro/internal/rdg"
	"repro/internal/rng"
)

// TestIndepRecoveryLineProperty is the executed-recovery companion of the
// rdg brute-force test: crash real Indep runs at rng-drawn points and hold
// the line the recovery actually restored against the crash-time dependency
// graph. The restored line must be consistent (rolling back any less keeps an
// orphan: under-rollback), never exceed the durable checkpoints, match the
// analyzer's line exactly, and dominate every consistent line a randomized
// candidate search can find (over-rollback: recovery never rolls a rank back
// past the most recent consistent line).
func TestIndepRecoveryLineProperty(t *testing.T) {
	wl := bench.RingWorkload(256, 40, 2e5)
	r := rng.New(0xD011_11E5)
	o := NewOracle(par.DefaultConfig())
	recovered := 0
	for trial := 0; trial < 8; trial++ {
		scheme := ckpt.Indep
		if trial%2 == 1 {
			scheme = ckpt.IndepM
		}
		points := 3 + intn(r, 4)
		spec := CellSpec{
			Workload: wl, Scheme: scheme,
			Point: intn(r, points), Points: points, Seed: r.Uint64(),
		}
		res, err := o.RunCell(spec)
		if err != nil {
			t.Fatalf("trial %d (%v, seed %#x): %v", trial, scheme, spec.Seed, err)
		}
		if !res.Recovered {
			continue
		}
		recovered++

		g := rdg.FromRecords(len(res.Line), res.CrashRecords)
		if orph := g.OrphanEdges(res.Line); len(orph) != 0 {
			t.Fatalf("trial %d: under-rollback: restored line %v keeps orphans %v", trial, res.Line, orph)
		}
		latest := g.Latest()
		for p, v := range res.Line {
			if v > latest[p] {
				t.Fatalf("trial %d: line %v restores rank %d past its durable checkpoints %v", trial, res.Line, p, latest)
			}
		}
		if want := g.RecoveryLine(); !equalInts(res.Line, want) {
			t.Fatalf("trial %d: restored line %v, analyzer computes %v", trial, res.Line, want)
		}
		// Randomized over-rollback search: any consistent line the sampler
		// finds must already be dominated by the restored one. (Exhaustive
		// enumeration is infeasible at 8 ranks; the rdg brute-force test
		// carries the total proof on small graphs.)
		cand := make([]int, len(latest))
		for probe := 0; probe < 512; probe++ {
			for p := range cand {
				cand[p] = intn(r, latest[p]+1)
			}
			if !g.Consistent(cand) {
				continue
			}
			for p, v := range cand {
				if v > res.Line[p] {
					t.Fatalf("trial %d: over-rollback: consistent line %v exceeds restored %v at rank %d",
						trial, cand, res.Line, p)
				}
			}
		}
	}
	if recovered == 0 {
		t.Fatal("no trial crashed and recovered: the property was never exercised")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// intn draws a uniform int in [0,n), n > 0.
func intn(r *rng.RNG, n int) int { return int(r.Uint64() % uint64(n)) }
