package apps

import (
	"testing"

	"repro/internal/mp"
	"repro/internal/par"
)

// runToCompletion launches one program per rank and returns them after the
// run, failing the test on simulation errors.
func runToCompletion(t *testing.T, factory Factory) []mp.Program {
	t.Helper()
	m := par.NewMachine(par.DefaultConfig())
	w := mp.NewWorld(m)
	progs := make2(factory, m.NumNodes())
	for rank, p := range progs {
		w.Launch(rank, p)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return progs
}

func make2(f Factory, n int) []mp.Program {
	out := make([]mp.Program, n)
	for rank := range out {
		out[rank] = f(rank, n)
	}
	return out
}

// splitRun runs `first` to completion, snapshots every rank, restores the
// snapshots into fresh `full` programs, finishes those on a new machine, and
// returns them. If resume-at-boundary semantics are correct, the result
// must match a straight run of `full`.
func splitRun(t *testing.T, first, full Factory) []mp.Program {
	t.Helper()
	phase1 := runToCompletion(t, first)
	m := par.NewMachine(par.DefaultConfig())
	w := mp.NewWorld(m)
	progs := make2(full, m.NumNodes())
	for rank, p := range progs {
		p.Restore(phase1[rank].Snapshot())
		w.Launch(rank, p)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return progs
}

func TestIsingResumeAtSweepBoundary(t *testing.T) {
	cfgFull := DefaultIsing(64, 10)
	cfgHalf := cfgFull
	cfgHalf.Sweeps = 4
	got := splitRun(t,
		func(r, n int) mp.Program { return isingRank(r, n, cfgHalf) },
		func(r, n int) mp.Program { return isingRank(r, n, cfgFull) })
	if err := IsingWorkload(cfgFull).Check(got); err != nil {
		t.Fatal(err)
	}
}

func TestSORResumeAtIterationBoundary(t *testing.T) {
	cfgFull := DefaultSOR(64, 12)
	cfgHalf := cfgFull
	cfgHalf.Iters = 5
	got := splitRun(t,
		func(r, n int) mp.Program { return NewSOR(r, n, cfgHalf) },
		func(r, n int) mp.Program { return NewSOR(r, n, cfgFull) })
	if err := SORWorkload(cfgFull).Check(got); err != nil {
		t.Fatal(err)
	}
}

func TestNBodyResumeAtStepBoundary(t *testing.T) {
	cfgFull := DefaultNBody(64, 6)
	cfgHalf := cfgFull
	cfgHalf.Steps = 2
	got := splitRun(t,
		func(r, n int) mp.Program { return NewNBody(r, n, cfgHalf) },
		func(r, n int) mp.Program { return NewNBody(r, n, cfgFull) })
	if err := NBodyWorkload(cfgFull).Check(got); err != nil {
		t.Fatal(err)
	}
}

func TestIsingResumeFromZeroIsIdentity(t *testing.T) {
	// Restoring a freshly constructed program's snapshot must not perturb it.
	cfg := DefaultIsing(64, 5)
	got := splitRun(t,
		func(r, n int) mp.Program {
			c := cfg
			c.Sweeps = 0
			return isingRank(r, n, c)
		},
		func(r, n int) mp.Program { return isingRank(r, n, cfg) })
	if err := IsingWorkload(cfg).Check(got); err != nil {
		t.Fatal(err)
	}
}
