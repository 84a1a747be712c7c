package rdg_test

import (
	"testing"

	"repro/internal/ckpt"
	"repro/internal/codec"
	"repro/internal/mp"
	"repro/internal/par"
	"repro/internal/rdg"
	"repro/internal/sim"
)

func TestGarbageCollectorReclaimsObsoleteCheckpoints(t *testing.T) {
	m := par.NewMachine(par.DefaultConfig())
	sch := ckpt.New(ckpt.Indep, ckpt.Options{Interval: 2 * sim.Second})
	sch.Attach(m)
	gc := rdg.AttachGC(m, sch, 3*sim.Second)
	w := mp.NewWorld(m)
	n := m.NumNodes()
	for rank := 0; rank < n; rank++ {
		w.Launch(rank, newRingProg(rank, n, 600, 60_000, 2e5))
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	taken := sch.Stats().Checkpoints
	if taken < 3*n {
		t.Skipf("only %d checkpoints taken", taken)
	}
	if gc.Reclaims == 0 {
		t.Fatal("collector reclaimed nothing despite multiple generations")
	}
	if gc.Freed == 0 {
		t.Fatal("no bytes accounted")
	}
	// Stable storage must hold fewer files than checkpoints taken.
	if nf := m.Store.NumFiles(); nf >= taken {
		t.Fatalf("storage holds %d files for %d checkpoints; GC ineffective", nf, taken)
	}
}

func TestGarbageCollectorNeverDeletesRecoveryLine(t *testing.T) {
	// After the run, the recovery line's checkpoints must still be durable.
	m := par.NewMachine(par.DefaultConfig())
	sch := ckpt.New(ckpt.Indep, ckpt.Options{Interval: 2 * sim.Second})
	sch.Attach(m)
	rdg.AttachGC(m, sch, 3*sim.Second)
	w := mp.NewWorld(m)
	n := m.NumNodes()
	for rank := 0; rank < n; rank++ {
		w.Launch(rank, newRingProg(rank, n, 500, 40_000, 2e5))
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	g := rdgFromScheme(n, sch)
	line := g.RecoveryLine()
	for rank, idx := range line {
		if idx == 0 {
			continue
		}
		// A durable file must exist for each line member: check via the
		// store directly (engine has drained; reads would need a process).
		found := false
		for _, rec := range sch.Records() {
			if rec.Rank == rank && rec.Index == idx {
				found = true
			}
		}
		if !found {
			t.Fatalf("line checkpoint (%d,%d) missing from records", rank, idx)
		}
	}
}

func TestAttachGCRejectsCoordinated(t *testing.T) {
	m := par.NewMachine(par.DefaultConfig())
	sch := ckpt.New(ckpt.CoordNB, ckpt.Options{Interval: sim.Second})
	sch.Attach(m)
	defer func() {
		if recover() == nil {
			t.Fatal("coordinated scheme accepted")
		}
	}()
	rdg.AttachGC(m, sch, sim.Second)
}

func TestIndependentSpreadStaggersFirstFires(t *testing.T) {
	_, _, sch := runRingSpread(t, 500*sim.Millisecond)
	recs := sch.Records()
	// First-generation completions must be spread by at least the configured
	// offset between consecutive ranks.
	first := map[int]sim.Time{}
	for _, r := range recs {
		if r.Index == 1 {
			first[r.Rank] = r.At
		}
	}
	if len(first) < 8 {
		t.Skipf("only %d first-generation checkpoints", len(first))
	}
	if spread := first[7] - first[0]; spread < sim.Time(3*sim.Second) {
		t.Fatalf("gen-1 spread %v, want >= 3.5s-ish from 0.5s/rank offsets", sim.Duration(spread))
	}
}

func runRingSpread(t *testing.T, spread sim.Duration) (*par.Machine, *mp.World, ckpt.Scheme) {
	t.Helper()
	m := par.NewMachine(par.DefaultConfig())
	sch := ckpt.New(ckpt.Indep, ckpt.Options{Interval: 4 * sim.Second, Spread: spread})
	sch.Attach(m)
	w := mp.NewWorld(m)
	n := m.NumNodes()
	for rank := 0; rank < n; rank++ {
		w.Launch(rank, newRingProg(rank, n, 600, 20_000, 2e5))
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m, w, sch
}

func rdgFromScheme(n int, sch ckpt.Scheme) *rdg.Graph {
	return rdg.FromRecords(n, sch.Records())
}

// barrier blocks until every rank has entered it: rank 0 collects one
// message from each other rank, then releases them.
func barrier(e *mp.Env) {
	const enter, release = 90, 91
	if e.Rank == 0 {
		for i := 1; i < e.Size(); i++ {
			e.Recv(mp.Any, enter)
		}
		for i := 1; i < e.Size(); i++ {
			e.Send(i, release, nil)
		}
		return
	}
	e.Send(0, enter, nil)
	e.Recv(0, release)
}

// gcRing is a phase-encoded ring program for the GC integration tests.
type gcRing struct {
	Rank, N, Iters int
	Iter, Phase    int
	Acc            int64
	Pad            []byte
}

func newRingProg(rank, n, iters, payload int, ops float64) *gcRing {
	return &gcRing{Rank: rank, N: n, Iters: iters, Pad: make([]byte, payload)}
}

// Run alternates communication bursts with long quiet compute phases: the
// checkpoints taken during quiescence form consistent recovery lines, so
// older generations become reclaimable (a workload that never goes quiet
// keeps its line pinned near the start — see the domino experiment — and
// correctly yields no garbage).
func (r *gcRing) Run(e *mp.Env) {
	right, left := (r.Rank+1)%r.N, (r.Rank+r.N-1)%r.N
	for r.Iter < r.Iters {
		if r.Phase == 0 {
			if r.Iter%50 == 0 {
				barrier(e)
				e.Compute(3e7) // ~3s of quiescence, longer than the interval
			}
			e.Compute(2e5)
			w := codec.NewWriter()
			w.I64(int64(r.Rank+1) * int64(r.Iter+1))
			e.Send(right, 1, w.Bytes())
			r.Phase = 1
		}
		m := e.Recv(left, 1)
		r.Acc += codec.NewReader(m.Data).I64()
		r.Phase = 0
		r.Iter++
	}
}

func (r *gcRing) Snapshot() []byte {
	w := codec.NewWriter()
	w.Int(r.Iter)
	w.Int(r.Phase)
	w.I64(r.Acc)
	w.Bytes8(r.Pad)
	return w.Bytes()
}

func (r *gcRing) Restore(b []byte) {
	rd := codec.NewReader(b)
	r.Iter, r.Phase, r.Acc, r.Pad = rd.Int(), rd.Int(), rd.I64(), rd.Bytes8()
}
