package ckpt_test

import (
	"testing"

	"repro/internal/ckpt"
	"repro/internal/mp"
	"repro/internal/par"
	"repro/internal/rdg"
	"repro/internal/sim"
)

// The communication-induced family's behaviour tests. They live in the
// external test package because they hold the records against package rdg,
// which imports ckpt.

// ringProg is a minimal message-intensive program: each rank alternates
// compute with a ring exchange, so piggybacked indices spread quickly and
// staggered timers provoke forced checkpoints.
type ringProg struct {
	iters int
	state []byte
}

func (r *ringProg) Snapshot() []byte { return append([]byte(nil), r.state...) }
func (r *ringProg) Restore(b []byte) { r.state = append([]byte(nil), b...) }
func (r *ringProg) Run(e *mp.Env) {
	n := e.Size()
	next := (e.Rank + 1) % n
	prev := (e.Rank + n - 1) % n
	for i := 0; i < r.iters; i++ {
		e.Compute(1e6)
		e.Send(next, 0, r.state[:128])
		e.Recv(prev, 0)
	}
}

// runRing attaches a CIC scheme to the default machine, runs the ring
// workload, and returns the scheme and the machine.
func runRing(t *testing.T, v ckpt.Variant, opt ckpt.Options, iters, stateBytes int) (ckpt.Scheme, *par.Machine) {
	t.Helper()
	m := par.NewMachine(par.DefaultConfig())
	s := ckpt.New(v, opt)
	s.Attach(m)
	w := mp.NewWorld(m)
	for rank := 0; rank < m.NumNodes(); rank++ {
		w.Launch(rank, &ringProg{iters: iters, state: make([]byte, stateBytes)})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return s, m
}

// testOpt staggers the nodes' timers by more than one blocking-write
// latency, so a node's higher index reaches its ring successor well before
// the successor's own timer — the forced-checkpoint case.
var testOpt = ckpt.Options{
	Interval: 500 * sim.Millisecond,
	Spread:   250 * sim.Millisecond,
}

func TestForcedCheckpointsOccur(t *testing.T) {
	s, m := runRing(t, ckpt.CIC, testOpt, 50, 60_000)
	st := s.Stats()
	if st.ForcedCkpts == 0 {
		t.Fatal("staggered timers on a ring produced no forced checkpoints; the induced rule never fired")
	}
	if st.FinalCkpts != m.NumNodes() {
		t.Fatalf("FinalCkpts = %d, want one termination checkpoint per node (%d)", st.FinalCkpts, m.NumNodes())
	}
	if st.Checkpoints <= st.ForcedCkpts {
		t.Fatalf("Checkpoints = %d, ForcedCkpts = %d: basic timer checkpoints missing", st.Checkpoints, st.ForcedCkpts)
	}
	// Per-node checkpoint indices must be strictly increasing in commit order
	// (forced jumps make them sparse, never reordered).
	last := make(map[int]int)
	for _, r := range s.Records() {
		if r.Index <= last[r.Rank] {
			t.Fatalf("rank %d committed index %d after %d", r.Rank, r.Index, last[r.Rank])
		}
		last[r.Rank] = r.Index
	}
}

func TestLatestLineIsConsistentAndZeroRollback(t *testing.T) {
	s, m := runRing(t, ckpt.CIC, testOpt, 50, 60_000)
	g := rdg.FromRecords(m.NumNodes(), s.Records())
	if !g.Consistent(g.Latest()) {
		t.Fatal("CIC latest-checkpoint line is inconsistent (orphan message)")
	}
	if !g.ZeroRollback() {
		t.Fatalf("CIC recovery line %v != latest %v: nonzero rollback", g.RecoveryLine(), g.Latest())
	}
	if garbage := g.Garbage(g.RecoveryLine()); len(garbage) == 0 {
		// With the line at the latest checkpoints, everything older is
		// reclaimable — the opposite of the domino effect's unbounded
		// retention.
		t.Log("no garbage yet (few checkpoints); acceptable on short runs")
	}
}

func TestMemVariantBlocksLess(t *testing.T) {
	sB, _ := runRing(t, ckpt.CIC, testOpt, 50, 60_000)
	sM, _ := runRing(t, ckpt.CICM, testOpt, 50, 60_000)
	b, m := sB.Stats(), sM.Stats()
	if m.AppBlocked >= b.AppBlocked {
		t.Fatalf("CIC_M blocked %v, CIC blocked %v: main-memory copy should block far less", m.AppBlocked, b.AppBlocked)
	}
	if m.MemCopyTime == 0 {
		t.Fatal("CIC_M recorded no memory-copy time")
	}
	if b.MemCopyTime != 0 {
		t.Fatal("blocking CIC recorded memory-copy time")
	}
}

func TestMaxCheckpointsCapsBasicOnly(t *testing.T) {
	// A 2s stagger with a 1-checkpoint cap: only node 0 checkpoints early,
	// and its index reaches every successor long before their own timers —
	// the ring must propagate the index by forcing alone.
	opt := ckpt.Options{
		Interval:       500 * sim.Millisecond,
		FirstAt:        500 * sim.Millisecond,
		Spread:         2 * sim.Second,
		MaxCheckpoints: 1,
	}
	s, m := runRing(t, ckpt.CIC, opt, 50, 60_000)
	st := s.Stats()
	basic := st.Checkpoints - st.ForcedCkpts
	if basic > m.NumNodes() {
		t.Fatalf("basic checkpoints = %d, want <= %d (MaxCheckpoints=1 per node)", basic, m.NumNodes())
	}
	if st.ForcedCkpts == 0 {
		t.Fatal("forced checkpoints must not be capped by MaxCheckpoints")
	}
}

func TestDeterministicRuns(t *testing.T) {
	for _, v := range []ckpt.Variant{ckpt.CIC, ckpt.CICM} {
		run := func() sim.Time {
			_, m := runRing(t, v, testOpt, 30, 60_000)
			return m.AppsFinished
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("%v nondeterministic: %v vs %v", v, a, b)
		}
	}
}
