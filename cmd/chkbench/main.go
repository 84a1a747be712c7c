// Command chkbench regenerates the paper's tables, the extension experiments
// and the failure/recovery demos on the simulated Parsytec Xplorer testbed.
//
// Usage:
//
//	chkbench -table 1        # Table 1: overhead per checkpoint, 21 workloads
//	chkbench -table 2        # Table 2: execution times with 3 checkpoints
//	chkbench -table 3        # Table 3: percentage overheads
//	chkbench -table all      # everything (Tables 2 and 3 share runs)
//	chkbench -quick          # reduced workload sizes (fast smoke run)
//	chkbench -list           # enumerate known applications and schemes
//	chkbench -exp NAME       # an extension experiment; -h lists the catalogue
//	                         # (bench.Experiments: sync, storage, ..., logging)
//	chkbench -exp coord      # E7: total failure + coordinated rollback-recovery
//	chkbench -exp logging    # E11: single-node failure + sender-based
//	                         #      message-logging recovery
//
// Concurrency: the (workload, scheme) matrix fans out over a worker pool.
// Results are byte-identical at every parallelism level — each cell's
// simulation is isolated and its seed derives from its coordinates, not from
// scheduling. Ctrl-C cancels the run after the in-flight cells finish.
//
//	chkbench -parallel 8     # worker goroutines (default GOMAXPROCS)
//	chkbench -parallel 1     # serial execution (same output, slower)
//
// Machine shape (defaults reproduce the paper's testbed exactly):
//
//	chkbench -topo 8x8                 # a W×H mesh instead of the paper's 4x2
//	chkbench -servers 4                # stripe stable storage over 4 servers
//	                                   # (E10 and E14 set their own shapes)
//	chkbench -celltime       # per-cell wall-clock table on stderr, and a
//	                         # timing section in the -json report
//
// Observability:
//
//	chkbench -table all -json out.json       # tables as machine-readable JSON
//	chkbench -trace out.json                 # Chrome trace of one run (-app/-scheme/-ckpts)
//	chkbench -metrics                        # overhead breakdown per scheme for -app
//	chkbench -metrics -scheme NBMS -ckpts 3  # one run: its report against the normal
//	                                         # run, breakdown and full metric summary
//
// Host profiling (the flags shared by every command, see internal/perf):
//
//	chkbench -cpuprofile cpu.out             # pprof CPU profile of the invocation
//	chkbench -memprofile mem.out             # heap profile at exit
//	chkbench -pprof localhost:6060           # live net/http/pprof while running
//
// Command-line misuse (an unknown -table or -exp, a bad machine shape, or
// -app/-scheme/-ckpts without -metrics or -trace) exits with status 2. Any
// failing cell aborts the run with status 1 and a message naming the cell and
// its replay seed; partial tables are never printed as if they were complete.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"repro/internal/bench"
	"repro/internal/ckpt"
	"repro/internal/par"
	"repro/internal/perf"
)

// errUsage marks command-line misuse (as opposed to a failing cell); main
// reports it with exit status 2, the flag package's convention.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(2)
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, "chkbench:", err)
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "chkbench:", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: every failure — flag
// misuse, an unknown name, or any benchmark cell erroring mid-matrix —
// returns a non-nil error, and main maps non-nil onto a non-zero exit.
func run(args []string, out, errw io.Writer) (err error) {
	fs := flag.NewFlagSet("chkbench", flag.ContinueOnError)
	fs.SetOutput(errw)
	table := fs.String("table", "", "table to regenerate: 1, 2, 3 or all")
	exp := fs.String("exp", "", "extension experiment or recovery demo:"+bench.ExperimentHelp())
	quick := fs.Bool("quick", false, "use reduced workload sizes")
	verbose := fs.Bool("v", false, "log every run")
	parallel := fs.Int("parallel", 0, "worker goroutines for the benchmark matrix (0 = GOMAXPROCS)")
	celltime := fs.Bool("celltime", false, "report per-cell wall-clock timings (stderr table + JSON timing section)")
	jsonOut := fs.String("json", "", "write the measured table rows as machine-readable JSON to this file")
	traceOut := fs.String("trace", "", "write a Chrome trace_event JSON of one checkpointed run (-app/-scheme/-ckpts) to this file")
	metrics := fs.Bool("metrics", false, "print the overhead breakdown (and, for a single -scheme, the run's report and metric summary) of -app")
	app := fs.String("app", "SOR-256", "workload for -trace/-metrics, e.g. SOR-256, ISING-512, GAUSS-384")
	scheme := fs.String("scheme", "", "scheme for -trace/-metrics, see -list (default NBMS for -trace, all Table 2 schemes for -metrics)")
	ckpts := fs.Int("ckpts", 3, "checkpoints per run for -trace/-metrics")
	list := fs.Bool("list", false, "list the known applications and schemes, then exit")
	mesh := fs.String("topo", "", "interconnect mesh WxH, e.g. 8x8 (default: the paper's 4x2)")
	servers := fs.Int("servers", 1, "stable-storage servers, each at a distinct host-attach node; rank r's files on server r mod N")
	var prof perf.Profile
	prof.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if err := prof.Start(errw); err != nil {
		return err
	}
	defer func() {
		if e := prof.Stop(); err == nil && e != nil {
			err = e
		}
	}()

	if *list {
		fmt.Fprintln(out, "Applications (-app NAME-SIZE; the size scales the per-node state):")
		for _, name := range bench.AppNames() {
			fmt.Fprintln(out, "  "+name)
		}
		fmt.Fprintln(out, "Schemes (-scheme; case-insensitive, Coord_ prefix and underscores optional):")
		for _, name := range bench.SchemeNames() {
			line := "  " + name
			if v, err := bench.SchemeByName(name); err == nil && v.ThreePhase {
				line += "  (failover: survives a coordinator crash via pre-commit + election)"
			}
			fmt.Fprintln(out, line)
		}
		return nil
	}
	var stray string // -app, -scheme and -ckpts pick the run -metrics and -trace inspect
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "app" || f.Name == "scheme" || f.Name == "ckpts" {
			stray = f.Name
		}
	})
	if stray != "" && *traceOut == "" && !*metrics {
		return fmt.Errorf("%w: -%s picks the run of -metrics or -trace; set one of them", errUsage, stray)
	}
	if *jsonOut != "" && *table == "" {
		*table = "all" // -json reports table rows, so it implies the table runs
	}
	if *table == "" && *exp == "" && *traceOut == "" && !*metrics {
		*table = "all"
	}
	switch *table {
	case "", "1", "2", "3", "all":
	default:
		// A typo used to fall through every table block silently and exit 0
		// with no output — success status for work never done.
		return fmt.Errorf("%w: unknown -table %q: want 1, 2, 3 or all", errUsage, *table)
	}
	var prog bench.Progress
	if *verbose {
		// Line-atomic writes keep concurrently running cells' logs readable.
		prog = bench.NewLineProgress(errw)
	}
	r := bench.NewRunner(*parallel, prog)
	// Ctrl-C stops dispatching new cells; in-flight simulations finish first.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()

	cfg := par.DefaultConfig()
	if err := bench.ConfigureFabric(&cfg, *mesh, *servers); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	var jsonRows []bench.JSONRow
	if *table == "1" || *table == "all" {
		wls := bench.Table1Workloads()
		if *quick {
			wls = bench.QuickWorkloads()
		}
		rows, err := r.MeasureRows(ctx, cfg, wls, bench.Table1Schemes, 3)
		if err != nil {
			return err
		}
		bench.WriteTable1(out, rows)
		fmt.Fprintln(out)
		jsonRows = append(jsonRows, bench.Report(cfg, rows, bench.Table1Schemes).Rows...)
	}
	if *table == "2" || *table == "3" || *table == "all" {
		wls := bench.Table2Workloads()
		if *quick {
			wls = bench.QuickWorkloads()
		}
		rows, err := r.MeasureRows(ctx, cfg, wls, bench.Table2Schemes, 3)
		if err != nil {
			return err
		}
		if *table == "2" || *table == "all" {
			bench.WriteTable2(out, rows)
			fmt.Fprintln(out)
		}
		if *table == "3" || *table == "all" {
			bench.WriteTable3(out, rows)
			fmt.Fprintln(out)
		}
		jsonRows = append(jsonRows, bench.Report(cfg, rows, bench.Table2Schemes).Rows...)
	}
	if *exp != "" {
		err := bench.RunExperiment(ctx, out, *exp, cfg, *quick, r)
		if errors.Is(err, bench.ErrUnknownExperiment) {
			return fmt.Errorf("%w: %w", errUsage, err)
		}
		if err != nil {
			return err
		}
	}
	if *traceOut != "" || *metrics {
		wl, err := bench.WorkloadByName(*app)
		if err != nil {
			return err
		}
		var schemes []ckpt.Variant
		switch {
		case *scheme != "":
			v, err := bench.SchemeByName(*scheme)
			if err != nil {
				return err
			}
			schemes = []ckpt.Variant{v}
		case *traceOut != "":
			schemes = []ckpt.Variant{ckpt.CoordNBMS}
		default:
			schemes = bench.Table2Schemes
		}
		base, bds, err := r.MeasureBreakdown(ctx, cfg, wl, schemes, *ckpts)
		if err != nil {
			return err
		}
		if *metrics {
			if len(bds) == 1 {
				bench.WriteRunReport(out, base, bds[0])
				fmt.Fprintln(out)
			}
			bench.WriteBreakdown(out, wl.Name, base.Exec, bds)
			fmt.Fprintln(out)
			if len(bds) == 1 {
				bench.WriteMetricsSummary(out, bds[0].Obs)
				fmt.Fprintln(out)
			}
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			if err := bds[0].Obs.WriteChromeTrace(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(errw, "chkbench: wrote Chrome trace of %s under %s to %s (open in Perfetto or chrome://tracing)\n",
				wl.Name, bds[0].Scheme, *traceOut)
		}
	}
	elapsed := time.Since(start)
	if *jsonOut != "" {
		rep := bench.JSONReport{
			Paper: "The Performance of Coordinated and Independent Checkpointing (Silva & Silva, IPPS 1999)",
			Nodes: cfg.Fabric.Nodes(),
			Rows:  jsonRows,
		}
		if *celltime {
			rep.Timing = bench.TimingReport(r, elapsed)
		}
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := bench.WriteJSON(f, rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(errw, "chkbench: wrote JSON report (%d rows) to %s\n", len(jsonRows), *jsonOut)
	}
	if *celltime {
		bench.WriteCellTimes(errw, r.Timings())
		fmt.Fprintf(errw, "elapsed %.3fs, serial cell cost %.3fs (speedup %.2fx at -parallel %d)\n",
			elapsed.Seconds(), r.TotalWall().Seconds(),
			r.TotalWall().Seconds()/elapsed.Seconds(), r.EffectiveParallel())
	}
	return nil
}
