package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/apps"
	"repro/internal/codec"
	"repro/internal/mp"
	"repro/internal/rng"
)

// pagesConfig sizes the benchmark-owned PAGES program: a ring exchange whose
// per-rank state is large and mostly clean, so a checkpoint's cost is the
// write path (full-image schemes move every byte) or the dirty scan and the
// delta encoder (incremental schemes move only the touched pages).
//
// The seed picks which pages are written and with what, but not how many are
// dirty or zero at any time: the writes walk the pages with a seeded odd
// stride from a seeded start, so no page is written twice while the walk is
// shorter than the state, and zero and non-zero pages alternate along it.
// Every seed therefore costs the host the same.
type pagesConfig struct {
	Seed       uint64  // selects the initial bytes and which pages each iteration dirties
	StateBytes int     // per-rank state, a power-of-two number of pages; every other page starts zero
	Iters      int     // ring iterations
	DirtyPer   int     // pages rewritten per iteration
	OpsPerIter float64 // virtual compute per iteration, keeps intervals above the write time
}

const pagesPageSize = 4096

// pagesProg is one rank of PAGES. Everything it writes is a pure function of
// (seed, rank, iteration), so the final state can be recomputed without a
// simulation and compared byte for byte.
type pagesProg struct {
	cfg        pagesConfig
	Rank, Size int

	Iter, Phase int
	Acc         int64
	State       []byte
}

// splitmix spreads a key over 64 bits: the first output of the repo's
// splitmix64 generator seeded with it.
func splitmix(key uint64) uint64 { return rng.New(key).Uint64() }

// fill overwrites b (a multiple of 8 bytes) with the random stream of key, so
// a filled page differs from a clean one and from any other fill.
func fill(b []byte, key uint64) {
	r := rng.New(key)
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.Uint64())
	}
}

func newPagesProg(cfg pagesConfig, rank, size int) *pagesProg {
	p := &pagesProg{cfg: cfg, Rank: rank, Size: size, State: make([]byte, cfg.StateBytes)}
	for pg := 0; pg < cfg.StateBytes/pagesPageSize; pg += 2 {
		fill(p.State[pg*pagesPageSize:(pg+1)*pagesPageSize], cfg.Seed^uint64(rank)<<32^uint64(pg))
	}
	return p
}

// dirtyPage returns the k-th page iteration iter rewrites on this rank.
func (p *pagesProg) dirtyPage(iter, k int) int {
	pages := uint64(p.cfg.StateBytes / pagesPageSize)
	h := splitmix(p.cfg.Seed ^ uint64(p.Rank)<<40)
	start, stride := h%pages, h>>32|1
	return int((start + uint64(iter*p.cfg.DirtyPer+k)*stride) % pages)
}

// dirty applies iteration iter's page writes.
func (p *pagesProg) dirty(iter int) {
	for k := 0; k < p.cfg.DirtyPer; k++ {
		pg := p.dirtyPage(iter, k)
		fill(p.State[pg*pagesPageSize:(pg+1)*pagesPageSize], p.cfg.Seed+uint64(p.Rank)<<48+uint64(iter)<<16+uint64(k))
	}
}

func (p *pagesProg) Run(e *mp.Env) {
	right := (p.Rank + 1) % p.Size
	left := (p.Rank + p.Size - 1) % p.Size
	for p.Iter < p.cfg.Iters {
		if p.Phase == 0 {
			e.Compute(p.cfg.OpsPerIter)
			p.dirty(p.Iter)
			w := codec.NewWriter()
			w.I64(int64(p.Rank+1) * int64(p.Iter+1))
			e.Send(right, 1, w.Bytes())
			p.Phase = 1
		}
		m := e.Recv(left, 1)
		p.Acc += codec.NewReader(m.Data).I64()
		p.Phase = 0
		p.Iter++
	}
}

// snapshotPad fills the snapshot's first page after the three counters and
// the two length prefixes, so that the state starts on a page boundary and a
// written page dirties exactly one tracked page.
var snapshotPad = make([]byte, pagesPageSize-5*8)

func (p *pagesProg) Snapshot() []byte {
	w := codec.NewWriter()
	w.Int(p.Iter)
	w.Int(p.Phase)
	w.I64(p.Acc)
	w.Bytes8(snapshotPad)
	w.Bytes8(p.State)
	return w.Bytes()
}

func (p *pagesProg) Restore(data []byte) {
	r := codec.NewReader(data)
	p.Iter, p.Phase, p.Acc = r.Int(), r.Int(), r.I64()
	r.Bytes8Borrow()
	p.State = r.Bytes8()
	if r.Err() != nil {
		panic(r.Err())
	}
}

// StatePageSize implements par.Paged.
func (p *pagesProg) StatePageSize() int { return pagesPageSize }

// stateHash is the comparison key of a rank's final state.
func stateHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// pagesWorkload packages PAGES. Check replays every rank's page writes on a
// fresh program and requires the simulated state to match it exactly.
func pagesWorkload(cfg pagesConfig) apps.Workload {
	return apps.Workload{
		Name: fmt.Sprintf("PAGES-%dK-i%d", cfg.StateBytes>>10, cfg.Iters),
		Make: func(rank, size int) mp.Program { return newPagesProg(cfg, rank, size) },
		Check: func(progs []mp.Program) error {
			size := len(progs)
			for rank, prog := range progs {
				got := prog.(*pagesProg)
				left := (rank + size - 1) % size
				var acc int64
				ref := newPagesProg(cfg, rank, size)
				for i := 0; i < cfg.Iters; i++ {
					acc += int64(left+1) * int64(i+1)
					ref.dirty(i)
				}
				if got.Acc != acc {
					return fmt.Errorf("pages: rank %d acc = %d, want %d", rank, got.Acc, acc)
				}
				if stateHash(got.State) != stateHash(ref.State) {
					return fmt.Errorf("pages: rank %d final state differs from the replayed page writes", rank)
				}
			}
			return nil
		},
	}
}
