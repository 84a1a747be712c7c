package ckpt

import (
	"strings"
	"testing"

	"repro/internal/mp"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/storage"
)

// runLoggedRing runs the ring under Indep_Log, crashes one node at crashAt,
// recovers it, and verifies the final results.
func runLoggedRing(t *testing.T, victim int, crashAt sim.Duration) (*par.Machine, Scheme, *NodeRecoveryReport) {
	t.Helper()
	const iters, payload = 400, 80_000
	m := par.NewMachine(par.DefaultConfig())
	sch := New(IndepLog, Options{Interval: 2 * sim.Second})
	sch.Attach(m)
	w := mp.NewWorld(m)
	n := m.NumNodes()
	factory := func(rank int) mp.Program { return newRingProg(rank, n, iters, payload, 2e5) }
	for rank := 0; rank < n; rank++ {
		w.Launch(rank, factory(rank))
	}
	var rep *NodeRecoveryReport
	m.Eng.At(sim.Time(crashAt), func() {
		m.CrashNode(victim)
		m.Eng.After(300*sim.Millisecond, func() {
			rep = RecoverNode(m, w, sch, victim, factory)
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if rep == nil || !rep.Done.Opened() {
		t.Fatal("recovery did not complete")
	}
	for rank := 0; rank < n; rank++ {
		pr := w.Envs[rank].Node().Snap.(*ringProg)
		if pr.Iter != iters {
			t.Fatalf("rank %d stopped at iter %d", rank, pr.Iter)
		}
		if pr.Acc != wantRingAcc(rank, n, iters) {
			t.Fatalf("rank %d acc = %d, want %d", rank, pr.Acc, wantRingAcc(rank, n, iters))
		}
	}
	return m, sch, rep
}

func TestSingleNodeRecoveryWithLogging(t *testing.T) {
	for _, victim := range []int{0, 3, 7} {
		victim := victim
		t.Run(map[int]string{0: "corner", 3: "middle", 7: "far"}[victim], func(t *testing.T) {
			_, _, rep := runLoggedRing(t, victim, 7*sim.Second)
			if rep.Index < 1 {
				t.Fatalf("recovered from checkpoint %d, want >= 1", rep.Index)
			}
			if rep.Resent == 0 {
				t.Fatal("no messages retransmitted from survivor logs")
			}
		})
	}
}

func TestSingleNodeRecoveryBeforeFirstCheckpoint(t *testing.T) {
	_, _, rep := runLoggedRing(t, 2, 1*sim.Second) // before the 2s timers
	if rep.Index != 0 {
		t.Fatalf("recovered from checkpoint %d, want 0 (restart)", rep.Index)
	}
}

func TestOnlyFailedNodeRollsBack(t *testing.T) {
	// The survivors' iteration counters at recovery time must be at or ahead
	// of where the victim resumes: nobody else rolled back.
	const iters, payload = 400, 80_000
	m := par.NewMachine(par.DefaultConfig())
	sch := New(IndepLog, Options{Interval: 2 * sim.Second})
	sch.Attach(m)
	w := mp.NewWorld(m)
	n := m.NumNodes()
	progs := make([]*ringProg, n)
	factory := func(rank int) mp.Program {
		progs[rank] = newRingProg(rank, n, iters, payload, 2e5)
		return progs[rank]
	}
	for rank := 0; rank < n; rank++ {
		w.Launch(rank, factory(rank))
	}
	victim := 5
	survivorIters := make([]int, n)
	m.Eng.At(sim.Time(7*sim.Second), func() {
		m.CrashNode(victim)
		for r, pr := range progs {
			survivorIters[r] = pr.Iter
		}
		m.Eng.After(300*sim.Millisecond, func() {
			RecoverNode(m, w, sch, victim, factory)
		})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for r, pr := range progs {
		if r == victim {
			continue
		}
		if pr.Iter < survivorIters[r] {
			t.Fatalf("survivor %d rolled back: %d -> %d", r, survivorIters[r], pr.Iter)
		}
		if pr.Acc != wantRingAcc(r, n, iters) {
			t.Fatalf("survivor %d acc wrong", r)
		}
	}
}

func TestLogTruncationBoundsMemory(t *testing.T) {
	// With periodic checkpoints and truncation notices, the volatile logs
	// must stay bounded well below the total traffic.
	const iters = 600
	m := par.NewMachine(par.DefaultConfig())
	sch := New(IndepLog, Options{Interval: sim.Second})
	sch.Attach(m)
	w := mp.NewWorld(m)
	n := m.NumNodes()
	var totalBytes int64
	envs := make([]*mp.Env, n)
	for rank := 0; rank < n; rank++ {
		envs[rank] = w.Launch(rank, newRingProg(rank, n, iters, 1000, 2e5))
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, e := range envs {
		totalBytes += e.BytesSent
	}
	peak := sch.Stats().LogBytesPeak
	if peak == 0 {
		t.Fatal("nothing logged")
	}
	if peak > totalBytes/2 {
		t.Fatalf("log peak %d vs total traffic %d: truncation ineffective", peak, totalBytes)
	}
}

func TestIndepLogOverheadComparableToIndep(t *testing.T) {
	// Sender-based logging is advertised as cheap: its failure-free overhead
	// must stay within a factor of the plain independent scheme's.
	exec := func(v Variant) sim.Duration {
		m, _, _ := runRing(t, v, Options{Interval: 2 * sim.Second, MaxCheckpoints: 2}, 400, 80_000)
		return sim.Duration(m.AppsFinished)
	}
	plain, logged := exec(Indep), exec(IndepLog)
	if logged > plain+plain/10 {
		t.Fatalf("Indep_Log run %v vs Indep %v: logging overhead too large", logged, plain)
	}
}

func TestRecoverNodeRejectsWrongScheme(t *testing.T) {
	m := par.NewMachine(par.DefaultConfig())
	sch := New(Indep, Options{Interval: sim.Second})
	sch.Attach(m)
	w := mp.NewWorld(m)
	defer func() {
		if recover() == nil {
			t.Fatal("RecoverNode accepted a non-logging scheme")
		}
	}()
	RecoverNode(m, w, sch, 0, nil)
}

// TestRecoverNodeRefusesWrongIndex: the file at the failed node's latest
// checkpoint path holds an older checkpoint of the same rank — a
// well-formed file, just not the one the records name. Restoring it would
// silently roll the node back further than its records say; single-node
// recovery must refuse it as the line-recovery driver does.
func TestRecoverNodeRefusesWrongIndex(t *testing.T) {
	const victim = 3
	m := par.NewMachine(par.DefaultConfig())
	sch := New(IndepLog, Options{Interval: 2 * sim.Second})
	sch.Attach(m)
	w := mp.NewWorld(m)
	n := m.NumNodes()
	factory := func(rank int) mp.Program { return newRingProg(rank, n, 400, 80_000, 2e5) }
	for rank := 0; rank < n; rank++ {
		w.Launch(rank, factory(rank))
	}
	latest := 0
	m.Eng.At(sim.Time(7*sim.Second), func() {
		m.CrashNode(victim)
		for _, r := range sch.Records() {
			if r.Rank == victim {
				latest = max(latest, r.Index)
			}
		}
		if latest < 2 {
			return // reported below
		}
		store := m.StoreFor(victim)
		older, _ := store.Peek(IndepLog.StatePath(victim, latest-1), nil)
		store.Submit(storage.Request{Op: storage.OpWrite, Path: IndepLog.StatePath(victim, latest), Data: older, Durable: true})
		m.Eng.After(300*sim.Millisecond, func() { RecoverNode(m, w, sch, victim, factory) })
	})
	// The refusal ends the run at the read; a restore of the wrong file
	// would run on, so stop shortly after the read either way.
	defer m.Eng.Shutdown()
	err := m.Eng.RunUntil(sim.Time(9 * sim.Second))
	if latest < 2 {
		t.Fatalf("rank %d had committed checkpoint %d at the crash, want >= 2", victim, latest)
	}
	if err == nil || !strings.Contains(err.Error(), "holds index") {
		t.Fatalf("recovery restored a file holding the wrong checkpoint: run error %v", err)
	}
}
