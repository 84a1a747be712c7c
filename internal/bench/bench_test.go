package bench

import (
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rdg"
	"repro/internal/sim"
)

func TestWorkloadSetsShape(t *testing.T) {
	if got := len(Table1Workloads()); got != 21 {
		t.Fatalf("Table 1 workloads = %d, want 21 (the paper's row count)", got)
	}
	if got := len(Table2Workloads()); got != 9 {
		t.Fatalf("Table 2 workloads = %d, want 9", got)
	}
	if got := len(QuickWorkloads()); got != 7 {
		t.Fatalf("quick workloads = %d, want one per application", got)
	}
}

func TestWorkloadByName(t *testing.T) {
	for _, name := range []string{"ISING-64", "SOR-128", "GAUSS-64", "ASP-64", "NBODY-64", "TSP-10", "NQUEENS-8", "RING-1000"} {
		if _, err := WorkloadByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, bad := range []string{"SOR", "FOO-12", "SOR-x", "SOR--3"} {
		if _, err := WorkloadByName(bad); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}

func TestSchemeByName(t *testing.T) {
	cases := map[string]ckpt.Variant{
		"NB": ckpt.CoordNB, "nbms": ckpt.CoordNBMS, "Coord_NBM": ckpt.CoordNBM,
		"indep": ckpt.Indep, "Indep_M": ckpt.IndepM, "b": ckpt.CoordB,
		"cic": ckpt.CIC, "CIC_M": ckpt.CICM, "cicm": ckpt.CICM,
	}
	for name, want := range cases {
		got, err := SchemeByName(name)
		if err != nil || got != want {
			t.Errorf("%s -> %v, %v (want %v)", name, got, err, want)
		}
	}
	for _, bad := range []string{"bogus", "indep_log"} {
		if _, err := SchemeByName(bad); err == nil {
			t.Errorf("%s scheme accepted", bad)
		}
	}
}

func TestMeasureRowsProducesOverheads(t *testing.T) {
	wl := syntheticWorkload(50_000)
	rows, err := NewRunner(0, nil).MeasureRows(context.Background(), par.DefaultConfig(),
		[]apps.Workload{wl}, []ckpt.Variant{ckpt.CoordNB, ckpt.Indep}, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Normal <= 0 || r.Exec[ckpt.CoordNB] < r.Normal {
		t.Fatalf("row: %+v", r)
	}
	if r.PerCkpt(ckpt.CoordNB) <= 0 || r.Percent(ckpt.CoordNB) <= 0 {
		t.Fatalf("overheads not positive: %+v", r)
	}
}

func TestTableWritersRender(t *testing.T) {
	rows := []Row{{
		Workload: "TEST-1",
		Normal:   100 * sim.Second,
		Interval: 25 * sim.Second,
		Ckpts:    3,
		Exec: map[ckpt.Variant]sim.Duration{
			ckpt.CoordNB:   110 * sim.Second,
			ckpt.Indep:     112 * sim.Second,
			ckpt.CoordNBM:  102 * sim.Second,
			ckpt.IndepM:    101 * sim.Second,
			ckpt.CoordNBMS: 100500 * sim.Millisecond,
		},
	}}
	var sb1, sb2, sb3 strings.Builder
	WriteTable1(&sb1, rows)
	WriteTable2(&sb2, rows)
	WriteTable3(&sb3, rows)
	if !strings.Contains(sb1.String(), "TEST-1") || !strings.Contains(sb1.String(), "NB vs Indep") {
		t.Fatalf("table 1 output:\n%s", sb1.String())
	}
	if !strings.Contains(sb2.String(), "110.00") {
		t.Fatalf("table 2 output:\n%s", sb2.String())
	}
	if !strings.Contains(sb3.String(), "20.0x") { // 10% / 0.5%
		t.Fatalf("table 3 output:\n%s", sb3.String())
	}
}

func TestSyntheticWorkloadChecksOut(t *testing.T) {
	if _, err := core.Run(syntheticWorkload(10_000), core.Default()); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncWorkloadChecksOut(t *testing.T) {
	if _, err := core.Run(AsyncWorkload(100, 5_000), core.Default()); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryDemoVerifies(t *testing.T) {
	err := RecoveryDemo(io.Discard, par.DefaultConfig(), ckpt.CoordNBMS,
		3*sim.Second, 10*sim.Second, 500*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryDemoRejectsIndependent(t *testing.T) {
	if err := RecoveryDemo(io.Discard, par.DefaultConfig(), ckpt.Indep, sim.Second, sim.Second, sim.Second); err == nil {
		t.Fatal("independent scheme accepted")
	}
}

// TestExperimentDispatch: an unknown name is rejected with the catalogue's
// names in the error (the entries themselves run under
// TestExperimentsParallelDeterminism).
func TestExperimentDispatch(t *testing.T) {
	err := RunExperiment(context.Background(), io.Discard, "nope", par.DefaultConfig(), true, NewRunner(0, nil))
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, name := range ExperimentNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

func TestRecoveryLineOnRealRunIsConsistent(t *testing.T) {
	// End-to-end integration: run the async workload under Indep, then the
	// rdg invariants must hold on the records a real run produced.
	n, recs, _ := asyncRecords(t, ckpt.Indep)
	if len(recs) == 0 {
		t.Fatal("no checkpoints taken")
	}
	g := rdg.FromRecords(n, recs)
	line := g.RecoveryLine()
	for _, r := range recs {
		for _, d := range r.Deps {
			if line[r.Rank] >= r.Index && line[d.SrcRank] <= int(d.SrcIndex) {
				t.Fatalf("orphan edge %d:%d <- %d:%d on line %v", r.Rank, r.Index, d.SrcRank, d.SrcIndex, line)
			}
		}
	}
}
