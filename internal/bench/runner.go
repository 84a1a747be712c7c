package bench

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Cell identifies one simulation of the benchmark matrix: a workload run
// under a scheme (or "normal" for the failure-free baseline), plus a free
// third coordinate Rep that experiments use for whatever else they sweep (an
// interval divisor, an MTTF index, a kill window). Cells are pure
// coordinates — everything derived from them, including the RNG seed, is a
// function of the coordinates alone, never of the order in which a worker
// pool happens to execute them.
type Cell struct {
	App    string
	Scheme string
	Rep    int
}

// Name returns the cell's display name, e.g. "SOR-256/Coord_NB", or
// "TSP-16/Indep#2" when Rep is non-zero.
func (c Cell) Name() string {
	if c.Rep > 0 {
		return fmt.Sprintf("%s/%s#%d", c.App, c.Scheme, c.Rep)
	}
	return c.App + "/" + c.Scheme
}

// Seed derives the cell's RNG seed from its coordinates: an FNV-1a hash of
// (app, scheme, rep) passed through a splitmix64 finalizer so that cells
// differing in a single coordinate get well-separated seeds. Because the
// seed depends only on the coordinates, a run's results are identical
// whichever worker executes it and in whatever order — the property the
// serial-vs-parallel golden test pins down.
func (c Cell) Seed() uint64 {
	h := fnv.New64a()
	io.WriteString(h, c.App)
	h.Write([]byte{0})
	io.WriteString(h, c.Scheme)
	h.Write([]byte{0, byte(c.Rep), byte(c.Rep >> 8), byte(c.Rep >> 16), byte(c.Rep >> 24)})
	z := h.Sum64() + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// CellTime is the host wall-clock cost of one completed cell (real time, not
// virtual: the measure of how well the matrix saturates the hardware).
type CellTime struct {
	Cell Cell
	Wall time.Duration
}

// Runner fans independent simulation cells out over a worker pool. Every
// simulation is a fully isolated par.Machine, so cells can run concurrently
// without sharing any mutable state; the runner adds the three things
// concurrency would otherwise break — deterministic result assembly (every
// cell lands in a preallocated slot, never an append in completion order),
// deterministic error selection (the lowest-index error wins), and
// line-atomic, cell-prefixed progress streaming.
type Runner struct {
	// Parallel is the number of worker goroutines; <= 0 means
	// runtime.GOMAXPROCS(0). Parallel == 1 reproduces the serial order.
	Parallel int

	// Prog receives per-cell progress lines; it is called concurrently from
	// the workers, so it must be safe for concurrent use (NewLineProgress,
	// testing.T.Logf). nil is silent.
	Prog Progress

	mu      sync.Mutex
	timings []CellTime
}

// NewRunner returns a Runner with the given parallelism (<= 0 means
// GOMAXPROCS) and progress sink.
func NewRunner(parallel int, prog Progress) *Runner {
	return &Runner{Parallel: parallel, Prog: prog}
}

func (r *Runner) parallel() int {
	if r.Parallel > 0 {
		return r.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// EffectiveParallel returns the worker count a ForEach call uses when there
// are at least that many cells: Parallel if positive, else GOMAXPROCS.
func (r *Runner) EffectiveParallel() int { return r.parallel() }

// Timings returns the wall-clock cost of every cell completed so far, sorted
// by cell name so the listing is stable across scheduling orders.
func (r *Runner) Timings() []CellTime {
	r.mu.Lock()
	out := append([]CellTime(nil), r.timings...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cell.Name() != out[j].Cell.Name() {
			return out[i].Cell.Name() < out[j].Cell.Name()
		}
		return out[i].Wall < out[j].Wall
	})
	return out
}

// TotalWall returns the summed wall-clock time of all completed cells — the
// serial cost of the work done so far. Compare it against the elapsed real
// time to see the pool's speedup.
func (r *Runner) TotalWall() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total time.Duration
	for _, t := range r.timings {
		total += t.Wall
	}
	return total
}

func (r *Runner) recordCell(c Cell, wall time.Duration) {
	r.mu.Lock()
	r.timings = append(r.timings, CellTime{Cell: c, Wall: wall})
	r.mu.Unlock()
}

// ForEach runs fn once per cell on the worker pool and blocks until every
// started cell has finished. Results must be written by fn into slots indexed
// by i — never appended — so assembly is independent of scheduling.
//
// Cancelling ctx stops new cells from being dispatched; cells already running
// finish (a discrete-event simulation cannot be interrupted mid-run) and then
// their workers exit, so no goroutines outlive the call. On cancellation
// ForEach returns ctx.Err(); if cells failed, it returns the error of the
// lowest-index failed cell, which makes error reporting deterministic under
// concurrency. The first failure also stops dispatch of further cells.
//
// Each ForEach call uses its own workers, so nesting (an experiment cell that
// itself calls MeasureRows on the same runner) cannot deadlock; nested calls
// may transiently oversubscribe Parallel, which only costs scheduling, not
// correctness.
func (r *Runner) ForEach(ctx context.Context, cells []Cell, fn func(ctx context.Context, i int, c Cell) error) error {
	n := len(cells)
	if n == 0 {
		return ctx.Err()
	}
	workers := r.parallel()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	// dispatch is cancelled on the first cell failure so later cells are not
	// started; the parent ctx stays intact for the caller.
	dispatch, stopDispatch := context.WithCancel(ctx)
	defer stopDispatch()
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				c := cells[i]
				start := time.Now()
				err := fn(dispatch, i, c)
				r.recordCell(c, time.Since(start))
				if err != nil {
					// Every failure names its cell and carries the cell's
					// seed: a fault- or seed-dependent failure is replayable
					// from the message alone (%w keeps context.Canceled and
					// friends visible to errors.Is).
					errs[i] = fmt.Errorf("%s (seed %#x): %w", c.Name(), c.Seed(), err)
					stopDispatch()
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-dispatch.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// Cells runs fn once per cell on r's pool and returns the results in cell
// order: element i is fn's value for cells[i], whatever order the cells
// finished in. Errors and cancellation are ForEach's.
func Cells[T any](ctx context.Context, r *Runner, cells []Cell, fn func(ctx context.Context, i int, c Cell) (T, error)) ([]T, error) {
	out := make([]T, len(cells))
	err := r.ForEach(ctx, cells, func(ctx context.Context, i int, c Cell) (err error) {
		out[i], err = fn(ctx, i, c)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// normal runs wl failure-free as one cell: the baseline every experiment
// derives its checkpoint interval from.
func (r *Runner) normal(ctx context.Context, cfg par.Config, wl apps.Workload) (core.Result, error) {
	base, err := Cells(ctx, r, []Cell{{App: wl.Name, Scheme: "normal"}},
		func(context.Context, int, Cell) (core.Result, error) {
			return core.Run(wl, core.Config{Machine: cfg})
		})
	if err != nil {
		return core.Result{}, err
	}
	return base[0], nil
}

// MeasureRows runs every workload normally and under each scheme with `ckpts`
// checkpoints at interval normal/(ckpts+1), and returns one Row per workload.
// This is the measurement procedure behind all three tables: the paper ran
// each application unchanged, then under each checkpointing scheme, with 3
// checkpoints spread over the execution. The matrix fans out over the pool in
// two phases — all failure-free baselines first (they define each workload's
// checkpoint interval), then every scheme cell — and rows assemble in
// workload order, so identical seeds produce byte-identical tables and JSON
// at any parallelism.
func (r *Runner) MeasureRows(ctx context.Context, cfg par.Config, wls []apps.Workload, schemes []ckpt.Variant, ckpts int) ([]Row, error) {
	baseCells := make([]Cell, len(wls))
	for i, wl := range wls {
		baseCells[i] = Cell{App: wl.Name, Scheme: "normal"}
	}
	rows, err := Cells(ctx, r, baseCells, func(_ context.Context, i int, _ Cell) (Row, error) {
		base, err := core.Run(wls[i], core.Config{Machine: cfg})
		if err != nil {
			return Row{}, err
		}
		row := Row{
			Workload: wls[i].Name,
			Normal:   base.Exec,
			Interval: base.Exec / sim.Duration(ckpts+1),
			Ckpts:    ckpts,
			Exec:     map[ckpt.Variant]sim.Duration{},
			Done:     map[ckpt.Variant]float64{},
			Stats:    map[ckpt.Variant]ckpt.Stats{},
		}
		r.Prog.logf("%-12s normal %8.2fs  (interval %.0fs)",
			row.Workload, base.Exec.Seconds(), row.Interval.Seconds())
		return row, nil
	})
	if err != nil {
		return nil, err
	}

	type schemeOut struct {
		res core.Result
		got float64
	}
	cells := make([]Cell, 0, len(wls)*len(schemes))
	for _, wl := range wls {
		for _, v := range schemes {
			cells = append(cells, Cell{App: wl.Name, Scheme: v.String()})
		}
	}
	outs, err := Cells(ctx, r, cells, func(_ context.Context, i int, c Cell) (schemeOut, error) {
		wi, si := i/len(schemes), i%len(schemes)
		v := schemes[si]
		res, err := core.Run(wls[wi], core.Config{
			Machine:        cfg,
			Scheme:         v,
			Interval:       rows[wi].Interval,
			MaxCheckpoints: ckpts,
		})
		if err != nil {
			return schemeOut{}, err // ForEach adds the cell name and seed
		}
		got := float64(res.Ckpt.Rounds)
		if !v.Coordinated() {
			got = float64(res.Ckpt.Checkpoints) / float64(cfg.Fabric.Nodes())
		}
		if got != float64(ckpts) {
			r.Prog.logf("note: %s completed %.2f/%d checkpoints (overhead normalized)", c.Name(), got, ckpts)
		}
		return schemeOut{res: res, got: got}, nil
	})
	if err != nil {
		return nil, err
	}
	// Deterministic assembly: cells land by index, so the maps fill in the
	// same (workload, scheme) order regardless of completion order.
	for wi := range wls {
		for si, v := range schemes {
			out := outs[wi*len(schemes)+si]
			row := &rows[wi]
			row.Exec[v] = out.res.Exec
			row.Done[v] = out.got
			row.Stats[v] = out.res.Ckpt
			r.Prog.logf("%-24s %8.2fs  (+%.2fs, %.2f%%)", cells[wi*len(schemes)+si].Name(),
				out.res.Exec.Seconds(), row.Overhead(v).Seconds(), row.Percent(v))
		}
	}
	return rows, nil
}

// WriteCellTimes renders the per-cell wall-clock table, most expensive cells
// first, with the serial total — the number to compare against elapsed real
// time to see the pool's speedup — and the p50/p95/p99 tail summary of the
// per-cell distribution (interpolated through obs.Histogram, see
// WallQuantiles).
func WriteCellTimes(w io.Writer, timings []CellTime) {
	sorted := append([]CellTime(nil), timings...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Wall > sorted[j].Wall })
	t := trace.NewTable("Per-cell wall-clock cost (host time, most expensive first)",
		"Cell", "Wall").Align(1)
	var total time.Duration
	for _, ct := range sorted {
		total += ct.Wall
		t.Rowf(ct.Cell.Name(), fmt.Sprintf("%.3fs", ct.Wall.Seconds()))
	}
	t.Rowf("TOTAL (serial cost)", fmt.Sprintf("%.3fs", total.Seconds()))
	if len(sorted) > 0 {
		p50, p95, p99 := WallQuantiles(timings)
		t.Rowf("p50 / p95 / p99", fmt.Sprintf("%.3fs / %.3fs / %.3fs", p50, p95, p99))
	}
	t.Write(w)
}

// WallQuantiles folds per-cell wall-clock timings through the perf layer's
// histogram (obs.Histogram over perf.WallBounds) and returns the interpolated
// p50/p95/p99, in seconds — the tail summary `chkbench -celltime` and the
// JSON timing section report alongside the raw per-cell listing.
func WallQuantiles(timings []CellTime) (p50, p95, p99 float64) {
	h := obs.NewHistogram(perf.WallBounds)
	for _, ct := range timings {
		h.Observe(ct.Wall.Seconds())
	}
	return h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
}
