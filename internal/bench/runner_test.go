package bench

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/perf"
	"repro/internal/sim"
)

// goldenWorkloads is the reduced matrix used by the equality tests: one
// regular neighbour-exchange workload and one dynamic master/worker one.
func goldenWorkloads(t *testing.T) []apps.Workload {
	t.Helper()
	var wls []apps.Workload
	for _, name := range []string{"SOR-64", "TSP-10"} {
		wl, err := WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wls = append(wls, wl)
	}
	return wls
}

var goldenSchemes = []ckpt.Variant{ckpt.CoordNB, ckpt.CoordNBMS, ckpt.Indep, ckpt.CIC}

// renderAll produces every golden artifact of one measurement: the three
// printed tables and the JSON report.
func renderAll(t *testing.T, cfg par.Config, rows []Row) (tables, jsonOut string) {
	t.Helper()
	var tb, jb strings.Builder
	WriteTable1(&tb, rows)
	WriteTable2(&tb, rows)
	WriteTable3(&tb, rows)
	if err := WriteJSON(&jb, Report(cfg, rows, goldenSchemes)); err != nil {
		t.Fatal(err)
	}
	return tb.String(), jb.String()
}

// saveGoldenDiff writes mismatching artifacts to $GOLDEN_DIFF_DIR (when set)
// so CI can upload them for inspection.
func saveGoldenDiff(t *testing.T, files map[string]string) {
	dir := os.Getenv("GOLDEN_DIFF_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("golden diff dir: %v", err)
		return
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Logf("golden diff %s: %v", name, err)
		}
	}
	t.Logf("wrote golden diff artifacts to %s", dir)
}

// TestSerialParallelGoldenEquality is the headline determinism guarantee:
// the same matrix measured at -parallel 1 and at -parallel 8 renders
// byte-identical tables and JSON. On mismatch the four artifacts are written
// to $GOLDEN_DIFF_DIR for CI to upload.
func TestSerialParallelGoldenEquality(t *testing.T) {
	cfg := par.DefaultConfig()
	wls := goldenWorkloads(t)

	serialRows, err := NewRunner(1, t.Logf).MeasureRows(context.Background(), cfg, wls, goldenSchemes, 3)
	if err != nil {
		t.Fatal(err)
	}
	parallelRows, err := NewRunner(8, t.Logf).MeasureRows(context.Background(), cfg, wls, goldenSchemes, 3)
	if err != nil {
		t.Fatal(err)
	}

	serialTables, serialJSON := renderAll(t, cfg, serialRows)
	parallelTables, parallelJSON := renderAll(t, cfg, parallelRows)
	if serialTables != parallelTables || serialJSON != parallelJSON {
		saveGoldenDiff(t, map[string]string{
			"serial-tables.txt":    serialTables,
			"parallel-tables.txt":  parallelTables,
			"serial-report.json":   serialJSON,
			"parallel-report.json": parallelJSON,
		})
	}
	if serialTables != parallelTables {
		t.Errorf("tables differ between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialTables, parallelTables)
	}
	if serialJSON != parallelJSON {
		t.Errorf("JSON reports differ between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialJSON, parallelJSON)
	}
}

// TestCellSeedDerivation pins the per-cell seeding contract: seeds are pure
// functions of the coordinates, and distinct coordinates get distinct seeds.
func TestCellSeedDerivation(t *testing.T) {
	c := Cell{App: "SOR-64", Scheme: "Indep", Rep: 3}
	if c.Seed() != c.Seed() {
		t.Fatal("seed is not a pure function of the cell")
	}
	seen := map[uint64]Cell{}
	for _, app := range []string{"SOR-64", "TSP-10", "ASYNC-100"} {
		for _, scheme := range []string{"Indep", "Coord_NB", "CIC"} {
			for rep := 0; rep < 10; rep++ {
				c := Cell{App: app, Scheme: scheme, Rep: rep}
				if prev, dup := seen[c.Seed()]; dup {
					t.Fatalf("seed collision: %+v and %+v", prev, c)
				}
				seen[c.Seed()] = c
			}
		}
	}
	if (Cell{App: "ab", Scheme: "c"}).Seed() == (Cell{App: "a", Scheme: "bc"}).Seed() {
		t.Fatal("coordinate boundaries are not separated in the seed hash")
	}
}

// TestForEachCancellation proves the cancellation contract on real
// simulations: cancelling the context stops dispatch, the in-flight cells
// finish, ForEach returns ctx.Err(), and no goroutines (in particular no
// parked simulation daemons) outlive the call.
func TestForEachCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	wl := AsyncWorkload(40, 1_000)
	cfg := par.DefaultConfig()
	cells := make([]Cell, 64)
	for i := range cells {
		cells[i] = Cell{App: wl.Name, Scheme: "cancel", Rep: i}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var executed atomic.Int32
	r := NewRunner(4, nil)
	err := r.ForEach(ctx, cells, func(ctx context.Context, i int, c Cell) error {
		if _, err := core.Run(wl, core.Config{Machine: cfg}); err != nil {
			return err
		}
		if executed.Add(1) >= 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ran := int(executed.Load())
	if ran >= len(cells) {
		t.Fatalf("cancellation did not stop dispatch: all %d cells ran", ran)
	}
	// Every started cell finished and was recorded before ForEach returned.
	if got := len(r.Timings()); got != ran {
		t.Fatalf("recorded %d cells, %d executed", got, ran)
	}

	// The worker pool and every simulation's daemons must be gone. Allow the
	// runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after cancellation", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestForEachLowestIndexErrorWins pins deterministic error selection: when
// several cells fail, the reported error is the lowest-index one, regardless
// of completion order.
func TestForEachLowestIndexErrorWins(t *testing.T) {
	cells := make([]Cell, 16)
	for i := range cells {
		cells[i] = Cell{App: "ERR", Scheme: "x", Rep: i}
	}
	err := NewRunner(8, nil).ForEach(context.Background(), cells, func(ctx context.Context, i int, c Cell) error {
		if i == 0 {
			// Make index 0 finish last so "first to fail" and "lowest index"
			// genuinely differ.
			time.Sleep(20 * time.Millisecond)
		}
		return fmt.Errorf("cell %d failed", i)
	})
	if err == nil || !strings.HasSuffix(err.Error(), "cell 0 failed") {
		t.Fatalf("err = %v, want cell 0's error", err)
	}
	// The wrapper names the failing cell and its replay seed.
	want := fmt.Sprintf("%s (seed %#x)", cells[0].Name(), cells[0].Seed())
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to contain %q", err, want)
	}
}

// TestForEachStreamsMetricsAndTimings checks the runner's aggregate
// instrumentation: one wall-clock timing per completed cell, each cell once,
// in a stable sorted Timings listing whose walls TotalWall sums.
func TestForEachStreamsMetricsAndTimings(t *testing.T) {
	r := NewRunner(4, nil)
	cells := make([]Cell, 12)
	for i := range cells {
		cells[i] = Cell{App: "M", Scheme: "x", Rep: i}
	}
	if err := r.ForEach(context.Background(), cells, func(ctx context.Context, i int, c Cell) error {
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ts := r.Timings()
	if len(ts) != len(cells) {
		t.Fatalf("timings = %d, want %d", len(ts), len(cells))
	}
	seen := map[Cell]bool{}
	var total time.Duration
	for i, tm := range ts {
		if i > 0 && ts[i-1].Cell.Name() > tm.Cell.Name() {
			t.Fatalf("timings not sorted: %q after %q", tm.Cell.Name(), ts[i-1].Cell.Name())
		}
		if seen[tm.Cell] || tm.Wall < 0 {
			t.Fatalf("timing %+v repeated or negative", tm)
		}
		seen[tm.Cell] = true
		total += tm.Wall
	}
	if total != r.TotalWall() {
		t.Fatalf("TotalWall = %v, want the timings' sum %v", r.TotalWall(), total)
	}
	var sb strings.Builder
	WriteCellTimes(&sb, ts)
	if !strings.Contains(sb.String(), "TOTAL") || !strings.Contains(sb.String(), "M/x#3") {
		t.Fatalf("cell-time table:\n%s", sb.String())
	}
}

// TestWallQuantiles checks the tail summary added to `chkbench -celltime`:
// quantiles are ordered and clamped to the observed extremes.
func TestWallQuantiles(t *testing.T) {
	timings := []CellTime{
		{Wall: 10 * time.Millisecond},
		{Wall: 20 * time.Millisecond},
		{Wall: 30 * time.Millisecond},
		{Wall: 40 * time.Millisecond},
		{Wall: 400 * time.Millisecond},
	}
	p50, p95, p99 := WallQuantiles(timings)
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("quantiles not ordered: %v %v %v", p50, p95, p99)
	}
	if p50 < 0.01 || p99 > 0.4+1e-9 {
		t.Fatalf("quantiles outside observed range [0.01, 0.4]: %v %v %v", p50, p95, p99)
	}
}

// TestRunPerfQuickMatrix runs a small armed matrix — SOR and TSP under the
// coordinated staggered and fault-tolerant, independent, incremental and CIC
// schemes, plus one 64-node/4-server sharded-storage cell — one simulation at
// a time with core.Config.Perf armed, and checks that every simulation was
// sampled with live telemetry. It also checks the armed runs leave no
// goroutines behind: the collector is passive (no background flusher) and
// every simulated machine's daemons are reaped by Shutdown.
func TestRunPerfQuickMatrix(t *testing.T) {
	before := runtime.NumGoroutine()
	collector := perf.NewCollector()
	// measure runs wl failure-free and then under each scheme with ckpts
	// checkpoints, as MeasureRows does, every run sampled by the collector.
	measure := func(cfg par.Config, wl apps.Workload, schemes []ckpt.Variant, ckpts int) {
		base, err := core.Run(wl, core.Config{Machine: cfg, Perf: collector})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range schemes {
			if _, err := core.Run(wl, core.Config{Machine: cfg, Scheme: v,
				Interval: base.Exec / sim.Duration(ckpts+1), MaxCheckpoints: ckpts, Perf: collector}); err != nil {
				t.Fatalf("%s/%v: %v", wl.Name, v, err)
			}
		}
	}
	cfg := par.DefaultConfig()
	wls := []apps.Workload{
		apps.SORWorkload(apps.DefaultSOR(64, 30)),
		apps.TSPWorkload(apps.TSPConfig{Cities: 10, Seed: 0x75b, OpsPerNode: 400}),
	}
	schemes := []ckpt.Variant{ckpt.CoordNBMS, ckpt.CoordNBFT, ckpt.Indep, ckpt.IndepInc, ckpt.CICM}
	for _, wl := range wls {
		measure(cfg, wl, schemes, 3)
	}
	cell := ScaleCell{MeshW: 8, MeshH: 8, Servers: 4}
	measure(scaleConfig(cfg, cell), scaleWorkload(cell.Nodes()), []ckpt.Variant{ckpt.CoordNB}, 2)

	// One sample per simulation: each workload's fault-free baseline plus
	// every scheme, and the scaling cell's baseline plus its one scheme.
	samples := collector.Samples()
	if want := len(wls)*(1+len(schemes)) + 2; len(samples) != want {
		t.Fatalf("collector recorded %d samples, want %d", len(samples), want)
	}
	var enc int64
	for _, s := range samples {
		if s.Events == 0 || s.Procs == 0 || s.Wall <= 0 {
			t.Fatalf("sample %s/%s missing telemetry: %+v", s.Workload, s.Scheme, s)
		}
		enc += s.EncBytes
	}
	// Serial runs: the scheme cells moved checkpoint images through the codec.
	if enc <= 0 {
		t.Fatalf("codec encode counter never moved over %d samples", len(samples))
	}

	// No goroutine may outlive the matrix. Allow the runtime a moment to
	// retire exiting goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after the perf matrix", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMeasureRowsHighParallelismStress drives the whole measurement stack —
// engine handoff, scheme state, line-atomic progress —
// from many more workers than cells and from nested ForEach calls. Its value
// is under -race: any unsynchronized sharing between concurrently running
// simulations surfaces here.
func TestMeasureRowsHighParallelismStress(t *testing.T) {
	cfg := par.DefaultConfig()
	var buf strings.Builder
	var mu sync.Mutex
	prog := NewLineProgress(syncWriter{&mu, &buf})
	r := NewRunner(32, prog)
	wls := goldenWorkloads(t)

	// Two concurrent MeasureRows on one runner: nested/overlapping ForEach
	// calls must neither deadlock nor corrupt shared state.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	rowsOut := make([][]Row, 2)
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rowsOut[k], errs[k] = r.MeasureRows(context.Background(), cfg, wls,
				[]ckpt.Variant{ckpt.CoordNB, ckpt.Indep}, 2)
		}()
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("pass %d: %v", k, err)
		}
	}
	if !reflect.DeepEqual(rowsOut[0], rowsOut[1]) {
		t.Fatal("concurrent identical measurements disagree")
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.Contains(line, "normal") && !strings.Contains(line, "s  (+") &&
			!strings.Contains(line, "overhead normalized") {
			t.Fatalf("interleaved progress line: %q", line)
		}
	}
}

// syncWriter serializes Write calls; NewLineProgress already locks around its
// single Write, but the test reads buf concurrently with nothing else, so
// keep the writer itself race-free for -race.
type syncWriter struct {
	mu *sync.Mutex
	w  *strings.Builder
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestLineProgressAtomic hammers one NewLineProgress from many goroutines:
// every emitted line must arrive intact and newline-terminated.
func TestLineProgressAtomic(t *testing.T) {
	var mu sync.Mutex
	var buf strings.Builder
	p := NewLineProgress(syncWriter{&mu, &buf})
	const workers, lines = 16, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := 0; l < lines; l++ {
				p("[cell-%02d] msg %03d of worker", w, l)
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	got := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(got) != workers*lines {
		t.Fatalf("%d lines, want %d", len(got), workers*lines)
	}
	for _, line := range got {
		if !strings.HasPrefix(line, "[cell-") || !strings.HasSuffix(line, "of worker") {
			t.Fatalf("mangled line: %q", line)
		}
	}
}

// TestForEachEmptyAndSingle covers the degenerate pool shapes.
func TestForEachEmptyAndSingle(t *testing.T) {
	r := NewRunner(4, nil)
	if err := r.ForEach(context.Background(), nil, func(ctx context.Context, i int, c Cell) error {
		t.Fatal("fn called for empty cell set")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := r.ForEach(context.Background(), []Cell{{App: "one"}}, func(ctx context.Context, i int, c Cell) error {
		ran = true
		return nil
	}); err != nil || !ran {
		t.Fatalf("single cell: err=%v ran=%v", err, ran)
	}
}
