package check

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/ckpt"
	"repro/internal/par"
)

// TestFailoverSweepAllCells runs the full coordinator-crash lattice: rank 0
// killed inside every protocol window of every scheme row, the election
// resolving each interrupted round, and every recovered run held against the
// fault-free baseline. This is the sweep CI runs under -race.
func TestFailoverSweepAllCells(t *testing.T) {
	cfg := FailoverSweep(par.DefaultConfig())
	rep, err := Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	// 5 phases for each failover scheme, 4 for plain Coord_NB (no
	// "precommit" window), 2 seeds each.
	if want := (5 + 5 + 4) * 2; rep.Cells != want {
		t.Fatalf("ran %d cells, want %d", rep.Cells, want)
	}
	if rep.Recovered != int64(rep.Cells) {
		t.Fatalf("only %d of %d cells crashed and recovered", rep.Recovered, rep.Cells)
	}
	if rep.Checks == 0 {
		t.Fatal("sweep exercised nothing")
	}
}

// TestFailoverCellResolution pins the termination rule cell by cell: a kill
// before the pre-commit window recovers to the previous round (the
// successor aborted, leaving no durable record of the interrupted round),
// while a kill at or after it recovers to the interrupted round itself (the
// successor completed it).
func TestFailoverCellResolution(t *testing.T) {
	o := NewOracle(par.DefaultConfig())
	wl := bench.RingWorkload(384, 40, 2e5)
	for _, tc := range []struct {
		phase     string
		wantRound int
	}{
		{ckpt.PhaseAcks, 0},      // nobody pre-committed: round 1 aborted
		{ckpt.PhasePreCommit, 1}, // a survivor pre-committed: round 1 adopted
		{ckpt.PhaseMeta, 1},      // record durable, commit unsent: round 1 adopted
	} {
		t.Run(tc.phase, func(t *testing.T) {
			c := bench.Cell{App: wl.Name, Scheme: ckpt.CoordNBFT.String(), Rep: 0}
			res, err := o.RunCell(CellSpec{
				Workload: wl, Scheme: ckpt.CoordNBFT,
				KillPhase: tc.phase, Seed: c.Seed(),
			})
			if err != nil {
				t.Fatalf("cell failed (seed %#x): %v", c.Seed(), err)
			}
			if !res.Recovered {
				t.Fatalf("kill at %q never fired (exec %v)", tc.phase, res.Exec)
			}
			if res.Round != tc.wantRound {
				t.Fatalf("recovered round %d, want %d", res.Round, tc.wantRound)
			}
		})
	}
}

// TestFailoverCellDeterministic reruns one coordinator-kill cell on fresh
// oracles and requires the identical trajectory, kill instant included.
func TestFailoverCellDeterministic(t *testing.T) {
	wl := bench.RingWorkload(384, 40, 2e5)
	c := bench.Cell{App: wl.Name, Scheme: ckpt.CoordNBFTInc.String(), Rep: 3}
	spec := CellSpec{Workload: wl, Scheme: ckpt.CoordNBFTInc, KillPhase: ckpt.PhasePreCommit, Seed: c.Seed()}
	r1, err1 := NewOracle(par.DefaultConfig()).RunCell(spec)
	r2, err2 := NewOracle(par.DefaultConfig()).RunCell(spec)
	if err1 != nil || err2 != nil {
		t.Fatalf("cell failed: %v / %v", err1, err2)
	}
	if r1.CrashAt != r2.CrashAt || r1.Exec != r2.Exec || r1.Checks != r2.Checks || r1.Round != r2.Round {
		t.Fatalf("non-deterministic cell: %+v vs %+v", r1, r2)
	}
}
