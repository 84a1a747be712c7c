package rdg_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rdg"
	"repro/internal/sim"
)

// The end-to-end recovery-guarantee contrast the cic package promises: on the
// same domino-provoking asynchronous workload, communication-induced
// checkpointing leaves a recovery line at every process's latest checkpoint
// (zero rollback past the last committed state), while independent
// checkpointing's line is dragged backwards by orphan messages.
//
// Staggered timers (Spread) maximize the index skew between processes, which
// is the hard case for CIC — forced checkpoints must repair every skewed
// delivery — and the domino-friendly case for Indep.
func runGuarantee(t *testing.T, v ckpt.Variant) (int, []ckpt.Record, ckpt.Stats) {
	t.Helper()
	cfg := par.DefaultConfig()
	wl := bench.AsyncWorkload(300, 20_000)
	res, err := core.Run(wl, core.Config{
		Machine:  cfg,
		Scheme:   v,
		Interval: 2 * sim.Second,
		Spread:   250 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatalf("%v took no checkpoints", v)
	}
	return cfg.Fabric.Nodes(), res.Records, res.Ckpt
}

func TestCICGuaranteesZeroRollbackOnDominoWorkload(t *testing.T) {
	n, recs, stats := runGuarantee(t, ckpt.CIC)
	g := rdg.FromRecords(n, recs)
	if !g.Consistent(g.Latest()) {
		t.Fatalf("CIC latest line %v has an orphan message", g.Latest())
	}
	if !g.ZeroRollback() {
		t.Fatalf("CIC recovery line %v != latest %v", g.RecoveryLine(), g.Latest())
	}
	if stats.ForcedCkpts == 0 {
		t.Fatal("the asynchronous workload provoked no forced checkpoints; the guarantee was not exercised")
	}
}

func TestIndepRollsBackOnDominoWorkload(t *testing.T) {
	n, recs, _ := runGuarantee(t, ckpt.Indep)
	g := rdg.FromRecords(n, recs)
	if g.ZeroRollback() {
		t.Fatalf("Indep recovery line %v equals latest %v on the domino workload; "+
			"the workload no longer provokes rollback and the CIC contrast test is vacuous",
			g.RecoveryLine(), g.Latest())
	}
}
