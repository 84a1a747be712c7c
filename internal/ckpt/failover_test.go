package ckpt

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/mp"
	"repro/internal/par"
	"repro/internal/sim"
)

// TestFailoverVariantsCommitWithoutCrash proves the fault-tolerant variants
// are well-behaved citizens when nothing fails: rounds commit through the
// extra pre-commit phase, the heartbeat detector never fires an election,
// and every rank's records land exactly as in the plain variants.
func TestFailoverVariantsCommitWithoutCrash(t *testing.T) {
	for _, v := range []Variant{CoordNBFT, CoordNBFTInc} {
		t.Run(v.String(), func(t *testing.T) {
			opt := Options{Interval: 2 * sim.Second}
			m, _, sch := runRing(t, v, opt, 500, 100_000)
			st := sch.Stats()
			if st.Rounds < 2 {
				t.Fatalf("rounds = %d, want >= 2", st.Rounds)
			}
			if st.Elections != 0 || st.RoundsAdopted != 0 {
				t.Fatalf("healthy run held %d election(s), adopted %d round(s)",
					st.Elections, st.RoundsAdopted)
			}
			if recs := sch.Records(); len(recs) != st.Rounds*m.NumNodes() {
				t.Fatalf("records = %d, want %d", len(recs), st.Rounds*m.NumNodes())
			}
		})
	}
}

// TestFailoverDeterminism pins the seeded-sim discipline for the failure
// detector: heartbeats, monitors and the pre-commit phase are pure engine
// events, so two identical runs finish at the identical virtual instant.
func TestFailoverDeterminism(t *testing.T) {
	opt := Options{Interval: 2 * sim.Second}
	run := func() sim.Time {
		m, _, _ := runRing(t, CoordNBFT, opt, 150, 80_000)
		return m.AppsFinished
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("Coord_NB_FT nondeterministic: %v vs %v", a, b)
	}
}

// runRingCoordKill runs the ring under a failover variant and kills the
// coordinator at the first announcement of phase. The election then resolves
// the interrupted round; after a settle window covering detection plus the
// vote window, the survivors are crashed so the parked ring drains (full
// recovery is package check's job — this test inspects the resolution).
func runRingCoordKill(t *testing.T, v Variant, phase string) (*par.Machine, Scheme) {
	t.Helper()
	m := par.NewMachine(par.DefaultConfig())
	t.Cleanup(m.Shutdown)
	sch := New(v, Options{Interval: 2 * sim.Second})
	sch.Attach(m)
	fired := false
	m.PhaseHook = func(ph string, round int) {
		if fired || ph != phase {
			return
		}
		fired = true
		m.CrashNode(0)
		m.Eng.After(FailoverSettle, func() {
			if m.AppsLive() > 0 {
				m.CrashAll()
			}
		})
	}
	w := mp.NewWorld(m)
	n := m.NumNodes()
	for rank := 0; rank < n; rank++ {
		w.Launch(rank, newRingProg(rank, n, 5000, 100_000, 2e5))
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatalf("phase %q never announced", phase)
	}
	return m, sch
}

// metaRoundOn reads the durable round record as recovery would.
func metaRoundOn(t *testing.T, m *par.Machine) (int, bool) {
	t.Helper()
	b, ok := m.StoreFor(0).Peek(CoordMetaPath, nil)
	if !ok {
		return 0, false
	}
	round, err := ParseMetaRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	return round, true
}

// TestCoordinatorCrashAfterPreCommitIsAdopted kills the coordinator inside
// the pre-commit window: some survivor holds a pre-commit, which proves all
// round files are durable, so the successor must finish the round — the
// durable record names the interrupted round and the stats show exactly one
// election and one adopted round.
func TestCoordinatorCrashAfterPreCommitIsAdopted(t *testing.T) {
	for _, v := range []Variant{CoordNBFT, CoordNBFTInc} {
		for _, phase := range []string{"precommit", "meta"} {
			t.Run(v.String()+"/"+phase, func(t *testing.T) {
				m, sch := runRingCoordKill(t, v, phase)
				st := sch.Stats()
				if st.Elections != 1 {
					t.Fatalf("elections = %d, want 1", st.Elections)
				}
				if st.RoundsAdopted != 1 || st.Rounds != 1 {
					t.Fatalf("adopted = %d, rounds = %d, want 1, 1",
						st.RoundsAdopted, st.Rounds)
				}
				round, ok := metaRoundOn(t, m)
				if !ok || round != 1 {
					t.Fatalf("durable round record = %d, %v; want round 1", round, ok)
				}
				if recs := sch.Records(); len(recs) != m.NumNodes() {
					t.Fatalf("records = %d, want %d", len(recs), m.NumNodes())
				}
			})
		}
	}
}

// TestCoordinatorCrashBeforePreCommitAborts kills the coordinator before any
// pre-commit exists: the round record provably was never written, so the
// successor aborts the round — no durable record, no committed round, and no
// partial state a recovery could misread.
func TestCoordinatorCrashBeforePreCommitAborts(t *testing.T) {
	for _, phase := range []string{"round", "acks"} {
		t.Run(phase, func(t *testing.T) {
			m, sch := runRingCoordKill(t, CoordNBFT, phase)
			st := sch.Stats()
			if st.Elections != 1 {
				t.Fatalf("elections = %d, want 1", st.Elections)
			}
			if st.RoundsAdopted != 0 || st.Rounds != 0 {
				t.Fatalf("adopted = %d, rounds = %d, want 0, 0", st.RoundsAdopted, st.Rounds)
			}
			if st.RoundsAborted != 1 {
				t.Fatalf("aborted = %d, want 1", st.RoundsAborted)
			}
			if round, ok := metaRoundOn(t, m); ok {
				t.Fatalf("durable round record %d exists after an aborted round", round)
			}
			if recs := sch.Records(); len(recs) != 0 {
				t.Fatalf("records = %d, want none", len(recs))
			}
		})
	}
}

// TestCoordinatorCrashAfterCommitFindsNothingInFlight kills the coordinator
// right after the commit broadcast: the takeover's vote scan finds the round
// already over, so the successor only installs its heartbeat.
func TestCoordinatorCrashAfterCommitFindsNothingInFlight(t *testing.T) {
	m, sch := runRingCoordKill(t, CoordNBFT, "commit")
	st := sch.Stats()
	if st.Elections != 1 {
		t.Fatalf("elections = %d, want 1", st.Elections)
	}
	if st.RoundsAdopted != 0 || st.Rounds != 1 {
		t.Fatalf("adopted = %d, rounds = %d, want 0, 1", st.RoundsAdopted, st.Rounds)
	}
	if round, ok := metaRoundOn(t, m); !ok || round != 1 {
		t.Fatalf("durable round record = %d, %v; want round 1", round, ok)
	}
}

// TestFailoverTimersReapedByShutdown proves the election/heartbeat machinery
// adds nothing Machine.Shutdown cannot reap: a failover run with a
// mid-election coordinator kill leaves no goroutines behind, in the style of
// the daemon-reap tests.
func TestFailoverTimersReapedByShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		m := par.NewMachine(par.DefaultConfig())
		defer m.Shutdown()
		sch := New(CoordNBFT, Options{Interval: 2 * sim.Second})
		sch.Attach(m)
		killed := false
		m.PhaseHook = func(ph string, round int) {
			if killed || ph != "precommit" {
				return
			}
			killed = true
			m.CrashNode(0)
			// Crash the survivors mid-election, before electWait resolves:
			// the pending resolution and every heartbeat/monitor timer must
			// still quiesce.
			m.Eng.After(suspicionTimeout+electWait/2, func() {
				if m.AppsLive() > 0 {
					m.CrashAll()
				}
			})
		}
		w := mp.NewWorld(m)
		n := m.NumNodes()
		for rank := 0; rank < n; rank++ {
			w.Launch(rank, newRingProg(rank, n, 5000, 100_000, 2e5))
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after Shutdown", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
