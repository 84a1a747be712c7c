package check

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/ckpt"
	"repro/internal/codec"
	"repro/internal/mp"
	"repro/internal/par"
)

// TestCellEveryScheme crashes one cell of every explorer scheme in a middle
// stratum and requires a clean bill: recovery ran, every invariant held, and
// the outcome matched the fault-free baseline.
func TestCellEveryScheme(t *testing.T) {
	o := NewOracle(par.DefaultConfig())
	wl := bench.RingWorkload(256, 40, 2e5)
	for _, v := range ExplorerSchemes {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			c := bench.Cell{App: wl.Name, Scheme: v.String(), Rep: 5}
			res, err := o.RunCell(CellSpec{Workload: wl, Scheme: v, Point: 1, Points: 4, Seed: c.Seed()})
			if err != nil {
				t.Fatalf("cell failed (seed %#x): %v", c.Seed(), err)
			}
			if !res.Recovered {
				t.Fatalf("crash at %v never happened (exec %v)", res.CrashAt, res.Exec)
			}
			if res.Checks == 0 {
				t.Fatalf("no invariant checks ran")
			}
		})
	}
}

// TestCellDeterministic reruns one cell of each family and requires the
// identical trajectory: same crash point, same recovery target, same
// execution time, same number of checks.
func TestCellDeterministic(t *testing.T) {
	wl := bench.AsyncWorkload(40, 256)
	for _, v := range []ckpt.Variant{ckpt.CoordNBM, ckpt.IndepM, ckpt.CICM} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			c := bench.Cell{App: wl.Name, Scheme: v.String(), Rep: 9}
			spec := CellSpec{Workload: wl, Scheme: v, Point: 2, Points: 4, Seed: c.Seed()}
			// Fresh oracles: the baseline must also reproduce.
			r1, err1 := NewOracle(par.DefaultConfig()).RunCell(spec)
			r2, err2 := NewOracle(par.DefaultConfig()).RunCell(spec)
			if err1 != nil || err2 != nil {
				t.Fatalf("cell failed: %v / %v", err1, err2)
			}
			if r1.CrashAt != r2.CrashAt || r1.Exec != r2.Exec || r1.Checks != r2.Checks || r1.Round != r2.Round {
				t.Fatalf("non-deterministic cell: %+v vs %+v", r1, r2)
			}
			for i := range r1.Line {
				if r1.Line[i] != r2.Line[i] {
					t.Fatalf("non-deterministic recovery line: %v vs %v", r1.Line, r2.Line)
				}
			}
		})
	}
}

// TestSweepSubset runs a miniature sweep through the public driver.
func TestSweepSubset(t *testing.T) {
	cfg := QuickSweep(par.DefaultConfig())
	cfg.Apps = cfg.Apps[:1]
	cfg.Points, cfg.Seeds = 2, 1
	rep, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if rep.Cells != len(ExplorerSchemes)*2 {
		t.Fatalf("ran %d cells, want %d", rep.Cells, len(ExplorerSchemes)*2)
	}
	if rep.Recovered == 0 || rep.Checks == 0 {
		t.Fatalf("sweep exercised nothing: %+v", rep)
	}
}

// recycler is bench's ring exchange with one vice: with recycle set it treats
// the buffer its last Snapshot returned as its own again and, an iteration
// later, scribbles over the accumulator in it — what a program that snapshots
// into a reused buffer does to its previous snapshot. That violates
// par.Snapshotter's ownership rule, and stable storage used to mask it by
// copying every byte it was sent; it no longer does. Iteration and phase are
// left alone, so the recovered run still terminates — with the wrong sum.
type recycler struct {
	rank, size, iters int
	recycle           bool
	lent              []byte

	iter, phase int
	acc         int64
}

func (r *recycler) Run(e *mp.Env) {
	right, left := (r.rank+1)%r.size, (r.rank+r.size-1)%r.size
	for r.iter < r.iters {
		if r.lent != nil {
			r.lent[16] ^= 0xFF // acc's low byte
			r.lent = nil
		}
		if r.phase == 0 {
			e.Compute(5e6)
			w := codec.NewWriter()
			w.I64(int64(r.rank+1) * int64(r.iter+1))
			e.Send(right, 1, w.Bytes())
			r.phase = 1
		}
		m := e.Recv(left, 1)
		r.acc += codec.NewReader(m.Data).I64()
		r.phase = 0
		r.iter++
	}
}

func (r *recycler) Snapshot() []byte {
	w := codec.NewWriter()
	w.Int(r.iter)
	w.Int(r.phase)
	w.I64(r.acc)
	if r.recycle {
		r.lent = w.Bytes()
	}
	return w.Bytes()
}

func (r *recycler) Restore(data []byte) {
	rd := codec.NewReader(data)
	r.iter, r.phase, r.acc = rd.Int(), rd.Int(), rd.I64()
}

// TestDroppedCopyStillBites: the storage server keeps the snapshot it is
// handed instead of a copy, so a program that writes a buffer its Snapshot
// returned rewrites its own durable checkpoint. Dropping the copy did not drop
// the defence: crashed and recovered from such a checkpoint, the program is
// reported by the oracle — its final state is not the fault-free run's — while
// its law-abiding twin passes the same cell.
func TestDroppedCopyStillBites(t *testing.T) {
	workload := func(recycle bool) apps.Workload {
		return apps.Workload{
			Name: fmt.Sprintf("RECYCLER-%v", recycle),
			Make: func(rank, size int) mp.Program {
				return &recycler{rank: rank, size: size, iters: 40, recycle: recycle}
			},
		}
	}
	for _, v := range []ckpt.Variant{ckpt.CoordNB, ckpt.CoordNBMS, ckpt.CIC} {
		t.Run(v.String(), func(t *testing.T) {
			for _, recycle := range []bool{false, true} {
				wl := workload(recycle)
				c := bench.Cell{App: wl.Name, Scheme: v.String(), Rep: 3}
				res, err := NewOracle(par.DefaultConfig()).RunCell(CellSpec{Workload: wl, Scheme: v, Point: 2, Points: 4, Seed: c.Seed()})
				if restored := res.Round > 0 || slices.Max(append(res.Line, 0)) > 0; !res.Recovered || !restored {
					t.Fatalf("recycle=%v: the cell restored no checkpoint: %+v", recycle, res)
				}
				switch {
				case !recycle && err != nil:
					t.Fatalf("the program that leaves its snapshots alone failed its cell: %v", err)
				case recycle && err == nil:
					t.Fatal("a program that wrote the snapshot it had handed over recovered unnoticed")
				case recycle && !strings.Contains(err.Error(), "equiv.final-state"):
					t.Fatalf("reported, but not as a final state that differs from the fault-free run's: %v", err)
				}
			}
		})
	}
	if !ckpt.ZeroPageIntact() {
		t.Fatal("the shared zero page was written")
	}
}
