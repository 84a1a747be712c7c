// Command chkrecover runs the failure/recovery experiments:
//
//	chkrecover -exp coord    # E7: total failure + coordinated rollback-recovery
//	chkrecover -exp logging  # E11: single-node failure + sender-based
//	                         #      message-logging recovery
//	chkrecover -exp NAME     # any entry of the experiment catalogue
//	                         # (bench.Experiments; -h lists it) — among them
//	                         # domino (E6), avail (E12), scale (E14) and
//	                         # failover (E15)
//	chkrecover -exp avail -seed 7              # force every cell's fault-plan seed
//	chkrecover -exp failover -killphase meta   # restrict E15 to one window
//
// Ctrl-C cancels the run after the in-flight cells finish.
//
// Any failing experiment cell aborts the run with a non-zero exit status and
// a message naming the cell and its replay seed.
//
// The shared host-profiling flags (-cpuprofile, -memprofile, -pprof) are
// available here as in every command; see internal/perf.
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
	"repro/internal/par"
	"repro/internal/perf"
	"repro/internal/sim"
)

// errUsage marks command-line misuse (as opposed to a failing experiment);
// main reports it with exit status 2, the flag package's convention.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(2)
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, "chkrecover:", err)
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "chkrecover:", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: every failure returns a
// non-nil error, and main maps non-nil onto a non-zero exit.
func run(args []string, out, errw io.Writer) (err error) {
	fs := flag.NewFlagSet("chkrecover", flag.ContinueOnError)
	fs.SetOutput(errw)
	exp := fs.String("exp", "coord", "experiment: coord (E7), logging (E11), or one of the catalogue:"+bench.ExperimentHelp())
	killphase := fs.String("killphase", "", "restrict -exp failover to one kill window: round, acks, precommit, meta or commit (default: all)")
	scheme := fs.String("scheme", "NBMS", "coordinated scheme for -exp coord")
	interval := fs.Duration("interval", 3*time.Second, "checkpoint interval (virtual)")
	crashAt := fs.Duration("crash", 15*time.Second, "failure time (virtual)")
	quick := fs.Bool("quick", false, "reduced workload sizes")
	parallel := fs.Int("parallel", 0, "worker goroutines for the catalogue experiments' cells (0 = GOMAXPROCS)")
	seed := fs.Uint64("seed", 0, "override every -exp avail cell's fault-plan seed (0 = per-cell seeds)")
	topoSpec := fs.String("topo", "", "interconnect topology spec, e.g. mesh:4x2, torus:8x8, fattree:4x3 (default: the paper's 4x2 mesh)")
	servers := fs.Int("servers", 1, "stable-storage servers, each at a distinct host-attach node")
	placement := fs.String("placement", "", "rank→server placement policy: stripe (default), hash or nearest")
	verbose := fs.Bool("v", false, "log every run")
	var prof perf.Profile
	prof.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.Start(errw); err != nil {
		return err
	}
	defer func() {
		if e := prof.Stop(); err == nil && e != nil {
			err = e
		}
	}()

	var prog bench.Progress
	if *verbose {
		prog = bench.NewLineProgress(errw)
	}
	cfg := par.DefaultConfig()
	if err := bench.ConfigureFabric(&cfg, *topoSpec, *servers, *placement); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	r := bench.NewRunner(*parallel, prog)
	// Ctrl-C stops dispatching new cells; in-flight simulations finish first.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	switch *exp {
	case "coord":
		v, err := bench.SchemeByName(*scheme)
		if err != nil {
			return err
		}
		return bench.RecoveryDemo(out, cfg, v,
			sim.Duration(*interval/time.Nanosecond),
			sim.Duration(*crashAt/time.Nanosecond),
			500*sim.Millisecond)
	case "logging":
		return bench.LoggingRecoveryDemo(out, cfg, 3,
			sim.Duration(*crashAt/time.Nanosecond), 300*sim.Millisecond)
	case "avail": // the catalogue entry, with -seed
		return bench.AvailabilityExperimentSeeded(ctx, out, cfg, *quick, r, *seed)
	case "failover": // the catalogue entry, with -killphase
		if *killphase != "" {
			if err := bench.ValidKillPhase(*killphase); err != nil {
				return fmt.Errorf("%w: -killphase: %v", errUsage, err)
			}
		}
		return bench.FailoverExperimentPhase(ctx, out, cfg, *quick, r, *killphase)
	}
	err = bench.RunExperiment(ctx, out, *exp, cfg, *quick, r)
	if errors.Is(err, bench.ErrUnknownExperiment) {
		return fmt.Errorf("%w: %v, coord or logging", errUsage, err)
	}
	return err
}
