package check

import (
	"bytes"
	"context"
	"errors"
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
	"repro/internal/perf"
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
	rep, err := Sweep(context.Background(), []SweepConfig{cfg}, 0, nil)
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

// vice is how a recycler breaks par.Snapshotter's ownership rule — Snapshot
// returns bytes the program never writes again — if it does.
type vice int

const (
	lawful vice = iota
	// scribble treats the buffer the last Snapshot returned as the program's
	// own again and, an iteration later, flips the accumulator in it: what a
	// program that snapshots into a reused buffer does to its previous
	// snapshot. Stable storage used to mask it by copying every byte it was
	// sent; it no longer does. Iteration and phase are left alone, so the
	// recovered run still terminates — with the wrong sum.
	scribble
	// reuse encodes every snapshot into the one buffer: the next capture
	// rewrites the snapshot an incremental scheme holds as its diff baseline,
	// which then matches every page, and the deltas record no change.
	reuse
	// adopt takes the buffer its first Snapshot returned back as its own: from
	// then on its tail lives there, counter and all. A later snapshot copies
	// the tail, so its unchanged pages compare equal to the first snapshot's
	// and every later full-image file borrows them — the live tail — as does
	// the incremental base that lent the first snapshot whole, whose literals
	// are its pages. Recovery restores the counter of the crash, not of the
	// checkpoint, and the run ends with the wrong one.
	adopt
)

// tailCounter is where in a recycler's tail the per-iteration counter lives:
// the start of the state's second 4 KiB page (the header is 24 bytes).
const tailCounter = 4096 - 24

// recycler is bench's ring exchange with a vice.
type recycler struct {
	rank, size, iters int
	vice              vice
	lent              []byte
	buf               []byte // reuse: the one snapshot buffer
	// tail is state after the header, unchanged but for a counter bumped
	// every iteration. A rank with a tail computes alone, no ring exchange,
	// so independent checkpoints do not domino to the start and recovery
	// restores one. adopted tells whether the tail is the first snapshot's.
	tail    []byte
	adopted bool

	iter, phase int
	acc         int64
}

func (r *recycler) Run(e *mp.Env) {
	right, left := (r.rank+1)%r.size, (r.rank+r.size-1)%r.size
	for r.iter < r.iters {
		if r.vice == scribble && r.lent != nil {
			r.lent[16] ^= 0xFF // acc's low byte
			r.lent = nil
		}
		if len(r.tail) > 0 {
			e.Compute(5e6)
			r.iter++
			r.tail[tailCounter]++
			continue
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
	r.lent = append(w.Bytes(), r.tail...)
	if r.vice == reuse { // no tail: the 24 bytes go into the one buffer
		r.buf = append(r.buf[:0], r.lent...)
		r.lent = r.buf
	}
	if r.vice == adopt && !r.adopted {
		r.tail, r.adopted = r.lent[24:], true
	}
	return r.lent
}

func (r *recycler) Restore(data []byte) {
	rd := codec.NewReader(data)
	r.iter, r.phase, r.acc = rd.Int(), rd.Int(), rd.I64()
	r.tail = bytes.Clone(data[24:][:len(r.tail)]) // the image's zero padding follows
}

// TestDroppedCopyStillBites: the storage server keeps the snapshot it is
// handed instead of a copy, so a program that writes a buffer its Snapshot
// returned rewrites its own durable checkpoint; and an incremental scheme
// holds the last committed snapshot as its diff baseline instead of a copy, so
// a program that snapshots into a buffer it reuses rewrites that baseline; and
// a full-image file borrows the unchanged pages of the rank's earlier
// snapshots, and an incremental base's literals are the pages of the snapshot
// it lends whole, so a program that writes its first snapshot rewrites every
// later full-image file, or the base of its incremental chain. Dropping the copies did not drop the defence: crashed and recovered, such a
// program is reported by the oracle — its final state is not the fault-free
// run's, or a committed chain does not replay to the snapshot it was taken
// from — while its law-abiding twin passes the same cell.
func TestDroppedCopyStillBites(t *testing.T) {
	for _, c := range []struct {
		v    ckpt.Variant
		vice vice
		tail int      // bytes of recycler state after the header
		want []string // the violation is one of these
	}{
		{ckpt.CoordNB, scribble, 0, []string{"equiv.final-state"}},
		{ckpt.CoordNBMS, scribble, 0, []string{"equiv.final-state"}},
		{ckpt.CIC, scribble, 0, []string{"equiv.final-state"}},
		{ckpt.CoordNBInc, reuse, 0, []string{"inc.chain-equals-snapshot", "equiv.final-state"}},
		{ckpt.IndepInc, reuse, 0, []string{"inc.chain-equals-snapshot", "equiv.final-state"}},
		{ckpt.CICInc, reuse, 0, []string{"inc.chain-equals-snapshot", "equiv.final-state"}},
		// Eight pages, at most two of them changed per checkpoint: every file
		// after the first borrows the first snapshot's others.
		{ckpt.IndepM, adopt, 7 * 4096, []string{"equiv.final-state"}},
		// The same program under incremental capture: the chain's base lends
		// the first snapshot whole, and the deltas find the live tail clean,
		// so every chain replays to the snapshot at its commit and only the
		// recovered state is wrong.
		{ckpt.IndepInc, adopt, 7 * 4096, []string{"equiv.final-state"}},
	} {
		t.Run(c.v.String(), func(t *testing.T) {
			for _, vice := range []vice{lawful, c.vice} {
				wl := apps.Workload{
					Name: fmt.Sprintf("RECYCLER-%d", vice),
					Make: func(rank, size int) mp.Program {
						return &recycler{rank: rank, size: size, iters: 40, vice: vice, tail: make([]byte, c.tail)}
					},
				}
				cell := bench.Cell{App: wl.Name, Scheme: c.v.String(), Rep: 3}
				res, err := NewOracle(par.DefaultConfig()).RunCell(CellSpec{Workload: wl, Scheme: c.v, Point: 2, Points: 4, Seed: cell.Seed()})
				// A rewritten durable file bites only once recovery reads it; a
				// rewritten baseline bites at the next commit's audit, whatever
				// recovery restores (under Indep_INC, the ring dominoes to the
				// start).
				if restored := res.Round > 0 || slices.Max(append(res.Line, 0)) > 0; !res.Recovered || (c.vice != reuse && !restored) {
					t.Fatalf("vice %d: the cell restored no checkpoint: %+v", vice, res)
				}
				switch {
				case vice == lawful && err != nil:
					t.Fatalf("the program that leaves its snapshots alone failed its cell: %v", err)
				case vice != lawful && err == nil:
					t.Fatal("a program that wrote the snapshot it had handed over recovered unnoticed")
				case vice != lawful && !slices.ContainsFunc(c.want, func(inv string) bool { return strings.Contains(err.Error(), inv+":") }):
					t.Fatalf("reported, but not as %v: %v", c.want, err)
				}
			}
		})
	}
}

// stuck is the law-abiding ring that, once restored from a checkpoint,
// computes for ever: a recovery after which the program never finishes.
type stuck struct {
	recycler
	restored bool
}

func (s *stuck) Restore(data []byte) {
	s.recycler.Restore(data)
	s.restored = true
}

func (s *stuck) Run(e *mp.Env) {
	for s.restored {
		e.Compute(1e9)
	}
	s.recycler.Run(e)
}

// TestRunCellHorizon: a recovered program that never finishes fails its cell
// with a named violation that carries the cell and its seed, where the
// schemes' timers used to keep the cell simulating until the test binary
// timed out. The run stopped at the horizon is still torn down through core,
// so an armed collector records its one sample.
func TestRunCellHorizon(t *testing.T) {
	wl := apps.Workload{Name: "STUCK", Make: func(rank, size int) mp.Program {
		return &stuck{recycler: recycler{rank: rank, size: size, iters: 40}}
	}}
	for _, v := range []ckpt.Variant{ckpt.CoordNB, ckpt.CIC} {
		t.Run(v.String(), func(t *testing.T) {
			c := bench.Cell{App: wl.Name, Scheme: v.String(), Rep: 3}
			collector := perf.NewCollector()
			res, err := NewOracle(par.DefaultConfig()).RunCell(CellSpec{Workload: wl, Scheme: v, Point: 2, Points: 4, Seed: c.Seed(), Perf: collector})
			if !res.Recovered {
				t.Fatalf("the cell never crashed: %+v", res)
			}
			for _, want := range []string{"recover.terminates", "STUCK/" + v.String(), fmt.Sprintf("seed %#x", c.Seed())} {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("the cell's error does not name %q: %v", want, err)
				}
			}
			if viol := (*Violation)(nil); !errors.As(err, &viol) || viol.Invariant != "recover.terminates" {
				t.Fatalf("the error does not wrap the recover.terminates violation: %v", err)
			}
			if samples := collector.Samples(); len(samples) != 1 || samples[0].Wall <= 0 {
				t.Fatalf("the cell stopped at the horizon recorded %d samples, want 1: %+v", len(samples), samples)
			}
		})
	}
}
