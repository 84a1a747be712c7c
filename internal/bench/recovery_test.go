package bench

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rdg"
	"repro/internal/sim"
)

// asyncRecords runs the canonical domino-provoking workload under v and
// returns the machine size, committed records, and completion time.
func asyncRecords(t *testing.T, v ckpt.Variant) (int, []ckpt.Record, sim.Duration) {
	t.Helper()
	cfg := par.DefaultConfig()
	wl := AsyncWorkload(300, 20_000)
	base, err := core.Run(wl, core.Config{Machine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(wl, core.Config{Machine: cfg, Scheme: v, Interval: base.Exec / 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatalf("%v took no checkpoints", v)
	}
	return cfg.Fabric.Nodes(), res.Records, res.Exec
}

// TestCoordinatedSchemesGiveZeroRollbackLine is the E6/E7 guarantee at the
// bench level: on the asynchronous workload that breaks independent
// checkpointing, every coordinated scheme's committed records form a
// zero-rollback recovery line — a failure at the end of the run restores the
// latest checkpoint on every rank.
func TestCoordinatedSchemesGiveZeroRollbackLine(t *testing.T) {
	for _, v := range []ckpt.Variant{ckpt.CoordNB, ckpt.CoordNBMS} {
		n, recs, _ := asyncRecords(t, v)
		g := rdg.FromRecords(n, recs)
		if !g.ZeroRollback() {
			t.Errorf("%v: recovery line %v is not the latest checkpoints %v", v, g.RecoveryLine(), g.Latest())
		}
		if g.Domino(g.RecoveryLine()) {
			t.Errorf("%v: coordinated scheme exhibits the domino effect", v)
		}
	}
}

// TestIndependentSchemeRollsBackNonzero pins the paper's counterpoint with
// the same fixed-seed run: independent checkpointing on the asynchronous
// workload loses checkpointed work — the recovery line sits strictly behind
// the latest checkpoints and the lost virtual time is positive.
func TestIndependentSchemeRollsBackNonzero(t *testing.T) {
	n, recs, total := asyncRecords(t, ckpt.Indep)
	g := rdg.FromRecords(n, recs)
	if g.ZeroRollback() {
		t.Fatal("Indep achieved a zero-rollback line on the domino workload; the experiment's contrast is gone")
	}
	line := g.RecoveryLine()
	var lost sim.Duration
	for _, d := range g.RollbackTime(line, sim.Time(total)) {
		if d < 0 {
			t.Fatalf("negative rollback time %v", d)
		}
		lost += d
	}
	if lost <= 0 {
		t.Fatalf("no virtual time lost on rollback (line %v, latest %v)", line, g.Latest())
	}
	dropped := 0
	for _, d := range g.RollbackCheckpoints(line) {
		dropped += d
	}
	if dropped <= 0 {
		t.Fatal("recovery line discards no checkpoint generations")
	}
}

// TestRecoveryDemoReportsRollback covers E7's output: the demo must verify
// the recomputed results and report the recovery accounting.
func TestRecoveryDemoReportsRollback(t *testing.T) {
	var sb strings.Builder
	err := RecoveryDemo(&sb, par.DefaultConfig(), ckpt.CoordNBMS,
		3*sim.Second, 10*sim.Second, 500*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"E7", "crash injected", "recovered round", "restart completed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestLoggingRecoveryDemoVerifies covers E11 end to end: a single-node
// failure recovered via sender-based message logging replays to the correct
// results.
func TestLoggingRecoveryDemoVerifies(t *testing.T) {
	var sb strings.Builder
	if err := LoggingRecoveryDemo(&sb, par.DefaultConfig(), 3,
		10*sim.Second, 300*sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "E11") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

// TestDominoExperimentContrasts parses E6's table far enough to check the
// experiment demonstrates its point under the fixed seed: CIC rows pay
// forced checkpoints, and the table carries both schemes at every interval.
func TestDominoExperimentContrasts(t *testing.T) {
	var sb strings.Builder
	if err := dominoExperiment(context.Background(), &sb, par.DefaultConfig(), true, NewRunner(4, t.Logf)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if got := strings.Count(out, "\nIndep "); got != 4 {
		t.Fatalf("Indep rows = %d, want 4:\n%s", got, out)
	}
	if got := strings.Count(out, "\nCIC "); got != 4 {
		t.Fatalf("CIC rows = %d, want 4:\n%s", got, out)
	}
	if !strings.Contains(out, "domino-free") {
		t.Fatalf("missing explanation:\n%s", out)
	}
}
