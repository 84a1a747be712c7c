package bench

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/par"
)

// TestTable1HeadlineShape pins the qualitative shape of the reproduced
// Table 1 on reduced-size workloads, so regressions in any scheme's cost
// model fail loudly:
//
//   - Main-memory checkpointing beats its blocking counterpart within every
//     family (the paper's central optimization).
//   - Staggered coordinated (NBMS) is at or below Indep_M — the paper's
//     headline "best scheme" claim, which this simulator reproduces.
//   - In this simulator Indep runs at or below NB (the documented sign
//     reversal against the paper's 15-of-21; see README "What reproduces").
//   - The communication-induced family pays for its recovery guarantee but
//     never less: CIC's raw execution time is at or above Indep's. On these
//     bulk-synchronous workloads the synchronized timers leave the induced
//     rule almost nothing to force (CIC degrades gracefully to Indep); the
//     forcing behavior itself is pinned by the cic package tests and the
//     domino experiment, which use staggered timers and an asynchronous
//     workload.
//
// The workloads are the quick-size GAUSS/ASP/NBODY instances, where all four
// relations hold with comfortable margins (2x or more at the time the test
// was written); the tight-margin SOR/ISING rows are deliberately excluded.
func TestTable1HeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 24 full simulations")
	}
	wls := []apps.Workload{
		apps.GaussWorkload(apps.DefaultGauss(128)),
		apps.ASPWorkload(apps.DefaultASP(128)),
		apps.NBodyWorkload(apps.DefaultNBody(256, 5)),
	}
	rows, err := NewRunner(0, t.Logf).MeasureRows(context.Background(), par.DefaultConfig(), wls, Table1Schemes, 3)
	if err != nil {
		t.Fatal(err)
	}
	nodes := par.DefaultConfig().Fabric.Nodes()
	for _, r := range rows {
		if m, b := r.PerCkpt(ckpt.CoordNBM), r.PerCkpt(ckpt.CoordNB); m >= b {
			t.Errorf("%s: Coord_NBM per-ckpt %v >= Coord_NB %v", r.Workload, m, b)
		}
		if m, b := r.PerCkpt(ckpt.IndepM), r.PerCkpt(ckpt.Indep); m >= b {
			t.Errorf("%s: Indep_M per-ckpt %v >= Indep %v", r.Workload, m, b)
		}
		if m, b := r.PerCkpt(ckpt.CICM), r.PerCkpt(ckpt.CIC); m >= b {
			t.Errorf("%s: CIC_M per-ckpt %v >= CIC %v", r.Workload, m, b)
		}
		if s, i := r.PerCkpt(ckpt.CoordNBMS), r.PerCkpt(ckpt.IndepM); s > i {
			t.Errorf("%s: Coord_NBMS per-ckpt %v > Indep_M %v (headline claim broken)", r.Workload, s, i)
		}
		if i, nb := r.PerCkpt(ckpt.Indep), r.PerCkpt(ckpt.CoordNB); i > nb {
			t.Errorf("%s: Indep per-ckpt %v > Coord_NB %v (reproduced reversal broken)", r.Workload, i, nb)
		}
		if c, i := r.Exec[ckpt.CIC], r.Exec[ckpt.Indep]; c < i {
			t.Errorf("%s: CIC exec %v < Indep exec %v (forced checkpoints should not speed a run up)", r.Workload, c, i)
		}
		if st := r.Stats[ckpt.CIC]; st.FinalCkpts != nodes {
			t.Errorf("%s: CIC termination checkpoints = %d, want one per node (%d)",
				r.Workload, st.FinalCkpts, nodes)
		}
		// The incremental variants' whole point: at the same interval each
		// writes strictly fewer state bytes to stable storage than its
		// full-image counterpart (bases are zero-run compressed, deltas carry
		// dirty pages only).
		for _, pair := range incrementalPairs {
			inc, full := pair[0], pair[1]
			ib, fb := r.Stats[inc].StateBytes, r.Stats[full].StateBytes
			if ib == 0 || ib >= fb {
				t.Errorf("%s: %v wrote %d state bytes, not strictly below %v's %d",
					r.Workload, inc, ib, full, fb)
			}
		}
	}
}
