// Package apps implements the paper's seven application benchmarks as
// message-passing programs against the mp API, each paired with a sequential
// reference implementation used to verify the parallel results:
//
//	ISING    spin-glass simulation (Metropolis sweeps on a 2-D lattice)
//	SOR      red-black successive overrelaxation for Laplace's equation
//	ASP      all-pairs shortest paths (Floyd's algorithm)
//	NBODY    gravitational N-body simulation (ring pipeline)
//	GAUSS    Gaussian elimination on a dense linear system
//	TSP      branch-and-bound travelling salesman, 16-city dense map
//	NQUEENS  N-queens solution counting
//
// Every program exposes its state through Snapshot/Restore with a compact
// binary encoding, so checkpoint sizes equal the real state footprint.
package apps

import (
	"fmt"

	"repro/internal/mp"
)

// Factory builds the program for one rank of a world of the given size.
type Factory func(rank, size int) mp.Program

// Workload is a named, parameterized application instance: what one row of
// the paper's tables runs.
//
// Make and Check may be called concurrently for independent runs of the same
// workload (the bench matrix runner fans one workload's scheme columns out
// over goroutines), so both must be safe for concurrent use.
type Workload struct {
	Name  string
	Make  Factory
	Check func(progs []mp.Program) error
}

// blockRange splits n items into size contiguous blocks and returns rank's
// half-open range. n must be divisible by size (the paper's grids are).
func blockRange(n, rank, size int) (lo, hi int) {
	if n%size != 0 {
		panic(fmt.Sprintf("apps: %d not divisible by %d ranks", n, size))
	}
	b := n / size
	return rank * b, (rank + 1) * b
}

// hash01 returns a deterministic pseudo-random float64 in [0,1) from a key,
// identical regardless of evaluation order, so parallel and sequential runs
// of the stochastic benchmarks produce bit-identical states.
func hash01(key uint64) float64 {
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// mix packs coordinates into a hash key. It is a left fold of mixStep, so
// mix(a, b, c) == mixStep(mix(a, b), c): a loop over the last coordinate can
// hash the common prefix once.
func mix(parts ...uint64) uint64 {
	var k uint64 = 0x8a5cd789635d2dff
	for _, p := range parts {
		k = mixStep(k, p)
	}
	return k
}

// mixStep folds one more coordinate p into the key k.
func mixStep(k, p uint64) uint64 {
	k ^= p + 0x9e3779b97f4a7c15 + (k << 6) + (k >> 2)
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	return k
}
