// Command chkcheck is the crash-recovery correctness oracle's explorer: it
// sweeps a lattice of (workload, scheme, crash stratum, seed) cells, crashes
// every node of every cell mid-run, recovers from stable storage through the
// scheme's own protocol, and holds the outcome against a fault-free baseline
// — final states and per-channel delivery logs byte-identical — while
// consistency invariants are audited on every checkpoint commit and every
// recovery (no orphan messages across the line, no in-transit loss, durable
// storage holds exactly the committed rounds, CIC never rolls back).
//
// Usage:
//
//	chkcheck -quick                   # CI sweep: all 12 schemes, plus the
//	                                  # sharded-storage and coordinator-kill
//	                                  # lattices
//	chkcheck -full                    # full sweep: more apps/strata/seeds
//	chkcheck -cell 'APP/SCHEME#REP'   # reproduce one cell by its printed name
//	chkcheck -parallel 8              # worker goroutines (default GOMAXPROCS)
//	chkcheck -v                       # log every recovered cell
//	chkcheck -seedlist FILE           # on failure, record the failing cell and
//	                                  # seed to FILE (the CI artifact)
//	chkcheck -cell NAME -trace out.json   # Chrome trace of one reproduction
//	chkcheck -full -cpuprofile cpu.out    # shared host-profiling flags
//	                                      # (-cpuprofile/-memprofile/-pprof)
//
// The sweep is fail-fast and deterministic: the first failing cell cancels
// dispatch, and under any parallelism the lowest-indexed failure is the one
// reported. Every failure names its cell and seed; the seed derives from the
// cell's identity alone, so `chkcheck -cell NAME` replays the failure bit for
// bit with no shared state from the sweep.
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
	"repro/internal/check"
	"repro/internal/obs"
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
		fmt.Fprintln(os.Stderr, "chkcheck:", err)
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "chkcheck:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errw io.Writer) (err error) {
	fs := flag.NewFlagSet("chkcheck", flag.ContinueOnError)
	fs.SetOutput(errw)
	quick := fs.Bool("quick", false, "run the CI sweep: 2 apps x 12 schemes x 4 strata x 4 seeds (the default)")
	full := fs.Bool("full", false, "run the full sweep: 3 apps x 12 schemes x 6 strata x 8 seeds")
	cell := fs.String("cell", "", "reproduce one cell by name, e.g. 'RING-256B-i40/Coord_NBM#5'")
	parallel := fs.Int("parallel", 0, "worker goroutines for the sweep (0 = GOMAXPROCS)")
	verbose := fs.Bool("v", false, "log every recovered cell")
	seedlist := fs.String("seedlist", "", "on sweep failure, write the failing cell name and seed to this file")
	traceOut := fs.String("trace", "", "with -cell: write a Chrome trace of the reproduction to this file")
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
	if *quick && *full {
		return fmt.Errorf("%w: -quick and -full are mutually exclusive", errUsage)
	}
	// -cell resolves against the lattice it was reported from, so -full
	// changes both what a sweep runs and what a cell name means. The sharded
	// and coordinator-kill sweeps run in both modes and their cell names are
	// disjoint from both lattices (and from each other), so -cell falls
	// through to them unambiguously.
	cfg := check.QuickSweep(par.DefaultConfig())
	if *full {
		cfg = check.FullSweep(par.DefaultConfig())
	}
	shard := check.ShardSweep(par.DefaultConfig())
	failover := check.FailoverSweep(par.DefaultConfig())
	cfg.Parallel = *parallel
	shard.Parallel = *parallel
	failover.Parallel = *parallel
	if *verbose {
		cfg.Prog = bench.NewLineProgress(errw)
		shard.Prog = cfg.Prog
		failover.Prog = cfg.Prog
	}
	if *cell != "" {
		return runCell([]check.SweepConfig{cfg, shard, failover}, *cell, *traceOut, out)
	}
	if *traceOut != "" {
		return fmt.Errorf("%w: -trace instruments a single run: combine it with -cell", errUsage)
	}

	// Ctrl-C stops dispatching new cells; in-flight simulations finish first.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	var rep check.SweepReport
	for _, sc := range []check.SweepConfig{cfg, shard, failover} {
		r, err := check.Sweep(ctx, sc)
		rep.Cells += r.Cells
		rep.Checks += r.Checks
		rep.Recovered += r.Recovered
		if err != nil {
			if *seedlist != "" {
				if werr := writeSeedlist(*seedlist, *full, err); werr != nil {
					fmt.Fprintln(errw, "chkcheck: seedlist:", werr)
				}
			}
			return err
		}
	}
	fmt.Fprintf(out, "chkcheck: %d cells ok (%d crashed and recovered, %d invariant checks) in %.1fs\n",
		rep.Cells, rep.Recovered, rep.Checks, time.Since(start).Seconds())
	return nil
}

// writeSeedlist records a sweep failure for the CI artifact: the failing
// cell's name and seed, plus the exact command that replays it.
func writeSeedlist(path string, full bool, err error) error {
	var ce *check.CellError
	if !errors.As(err, &ce) {
		// Not a cell failure (cancellation, baseline error): nothing to list.
		return nil
	}
	mode := "-quick"
	if full {
		mode = "-full"
	}
	body := fmt.Sprintf("%s seed=%#x\nreproduce: go run ./cmd/chkcheck %s -cell '%s'\n%v\n",
		ce.Cell.Name(), ce.Seed, mode, ce.Cell.Name(), ce.Err)
	return os.WriteFile(path, []byte(body), 0o644)
}

// runCell reproduces one cell by name, resolving against the sweep lattices
// in order (the mode's main lattice, then the sharded-storage one — their
// cell names are disjoint). Deterministic seeding makes the reproduction
// bit-identical to the sweep's execution of the same cell.
func runCell(cfgs []check.SweepConfig, name, traceOut string, out io.Writer) error {
	var (
		cfg  check.SweepConfig
		c    bench.Cell
		spec check.CellSpec
		err  error
	)
	for _, sc := range cfgs {
		if c, spec, err = sc.Spec(name); err == nil {
			cfg = sc
			break
		}
	}
	if err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if traceOut != "" {
		spec.Obs = obs.New()
	}
	res, err := check.NewOracle(cfg.Cfg).RunCell(spec)
	if err != nil {
		return fmt.Errorf("%s (seed %#x): %w", c.Name(), c.Seed(), err)
	}
	switch {
	case !res.Recovered:
		fmt.Fprintf(out, "%s (seed %#x): finished before the crash point %.3fs — fault-free equivalence only, %d checks ok\n",
			c.Name(), c.Seed(), res.CrashAt.Seconds(), res.Checks)
	case spec.Scheme.Coordinated():
		fmt.Fprintf(out, "%s (seed %#x): crash %.3fs -> recovered round %d, exec %.3fs, %d checks ok\n",
			c.Name(), c.Seed(), res.CrashAt.Seconds(), res.Round, res.Exec.Seconds(), res.Checks)
	default:
		fmt.Fprintf(out, "%s (seed %#x): crash %.3fs -> restored line %v, exec %.3fs, %d checks ok\n",
			c.Name(), c.Seed(), res.CrashAt.Seconds(), res.Line, res.Exec.Seconds(), res.Checks)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := spec.Obs.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
