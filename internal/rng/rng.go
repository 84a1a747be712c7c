// Package rng provides a small, fast, deterministic random number generator
// with serializable state, so that application snapshots can capture and
// restore the exact stream position (required for deterministic replay after
// rollback-recovery).
package rng

import "math"

// RNG is a splitmix64 generator. The zero value is a valid generator seeded
// with 0, but New should normally be used.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1.
func (r *RNG) ExpFloat64() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// State returns the serializable generator state.
func (r *RNG) State() uint64 { return r.state }

// SetState restores a state previously obtained from State.
func (r *RNG) SetState(s uint64) { r.state = s }
