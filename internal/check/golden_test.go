package check

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/mp"
	"repro/internal/par"
	"repro/internal/sim"
)

// coreRunRecords is the plain pipeline the instrumented run is held against.
func coreRunRecords(wl apps.Workload, cfg par.Config, v ckpt.Variant, interval sim.Duration, ckpts int) ([]ckpt.Record, error) {
	res, err := core.Run(wl, core.Config{Machine: cfg, Scheme: v, Interval: interval, MaxCheckpoints: ckpts})
	return res.Records, err
}

// instrumentedTableRun measures one (workload, scheme) table cell exactly as
// bench.MeasureRows does — same interval, same checkpoint budget — but with
// the oracle's full instrumentation riding along disarmed: harness-wrapped
// programs, per-message delivery/consume hooks, and the commit-hook audit
// checking every round against durable storage. No crash is scheduled.
func instrumentedTableRun(t *testing.T, cfg par.Config, wl apps.Workload, v ckpt.Variant,
	interval sim.Duration, ckpts int) (sim.Duration, ckpt.Stats, []ckpt.Record) {
	t.Helper()
	m := par.NewMachine(cfg)
	defer m.Shutdown()
	n := m.NumNodes()
	h := newHarness(n)
	a := newAudit(m, h, v)
	sch := ckpt.New(v, ckpt.Options{Interval: interval, MaxCheckpoints: ckpts, CommitHook: a.onCommit})
	sch.Attach(m)
	w := mp.NewWorld(m)
	h.Attach(w)
	for rank := 0; rank < n; rank++ {
		w.Launch(rank, &wrapped{inner: wl.Make(rank, n), h: h, rank: rank})
	}
	if err := m.Run(); err != nil {
		t.Fatalf("%s under %v: %v", wl.Name, v, err)
	}
	a.finish()
	if err := a.err(); err != nil {
		t.Fatalf("%s under %v: disarmed audit tripped: %v", wl.Name, v, err)
	}
	if a.checks == 0 {
		t.Fatalf("%s under %v: audit ran no checks — the hooks are not attached", wl.Name, v)
	}
	return sim.Duration(m.AppsFinished), sch.Stats(), sch.Records()
}

// TestDisarmedInstrumentationGoldenTables is the zero-cost guarantee: a
// table cell measured with the oracle's hooks attached (but no crash armed)
// is indistinguishable from the plain bench measurement — same virtual
// execution time, same scheme counters, same commit ledger — and therefore
// Tables 1–3 rendered from instrumented measurements are byte-identical to
// the seed pipeline's output. The hooks observe from host-side callbacks
// only; they must never consume virtual time or perturb the schedule.
func TestDisarmedInstrumentationGoldenTables(t *testing.T) {
	cfg := par.DefaultConfig()
	var wls []apps.Workload
	for _, name := range []string{"SOR-64", "TSP-10"} {
		wl, err := bench.WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, wl)
	}
	const ckpts = 3
	rows, err := bench.NewRunner(0, nil).MeasureRows(context.Background(), cfg, wls, bench.Table1Schemes, ckpts)
	if err != nil {
		t.Fatal(err)
	}

	// Re-measure every cell through the instrumented path and build a second
	// row set from those measurements.
	rows2 := make([]bench.Row, len(rows))
	for i, row := range rows {
		r2 := row
		r2.Exec = map[ckpt.Variant]sim.Duration{}
		r2.Stats = map[ckpt.Variant]ckpt.Stats{}
		for _, v := range bench.Table1Schemes {
			exec, stats, _ := instrumentedTableRun(t, cfg, wls[i], v, row.Interval, ckpts)
			if exec != row.Exec[v] {
				t.Errorf("%s under %v: instrumented exec %v, plain %v — hooks cost virtual time",
					wls[i].Name, v, exec, row.Exec[v])
			}
			if !reflect.DeepEqual(stats, row.Stats[v]) {
				t.Errorf("%s under %v: instrumented stats %+v, plain %+v",
					wls[i].Name, v, stats, row.Stats[v])
			}
			r2.Exec[v] = exec
			r2.Stats[v] = stats
		}
		rows2[i] = r2
	}

	render := func(rows []bench.Row) string {
		var sb strings.Builder
		bench.WriteTable1(&sb, rows)
		bench.WriteTable2(&sb, rows)
		bench.WriteTable3(&sb, rows)
		return sb.String()
	}
	plain, instrumented := render(rows), render(rows2)
	if plain != instrumented {
		t.Errorf("Tables 1-3 differ under disarmed instrumentation:\n--- plain ---\n%s\n--- instrumented ---\n%s",
			plain, instrumented)
	}
}

// TestDisarmedInstrumentationCommitLedger pins the ledger dimension of the
// same guarantee on one scheme per family: the committed checkpoint records
// (index, virtual commit time, sizes, dependency metadata) are identical
// with and without the oracle attached.
func TestDisarmedInstrumentationCommitLedger(t *testing.T) {
	cfg := par.DefaultConfig()
	wl, err := bench.WorkloadByName("SOR-64")
	if err != nil {
		t.Fatal(err)
	}
	interval := 800 * sim.Millisecond
	for _, v := range []ckpt.Variant{ckpt.CoordNBMS, ckpt.Indep, ckpt.CICM} {
		_, _, recs := instrumentedTableRun(t, cfg, wl, v, interval, 3)
		plain, err := coreRunRecords(wl, cfg, v, interval, 3)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !reflect.DeepEqual(recs, plain) {
			t.Errorf("%v: commit ledgers differ:\ninstrumented %+v\nplain        %+v", v, recs, plain)
		}
	}
}
