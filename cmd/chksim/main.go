// Command chksim runs a single application workload on the simulated
// machine, optionally under a checkpointing scheme, and reports the
// measurements — the building block the table generators batch over.
//
// Examples:
//
//	chksim -app SOR-512                          # failure-free baseline
//	chksim -app SOR-512 -scheme NBMS -ckpts 3    # three staggered checkpoints
//	chksim -app ISING-512 -scheme Indep -interval 30s
//	chksim -app SOR-256 -scheme NBMS -trace out.json   # Chrome trace of the run
//	chksim -app SOR-512 -cpuprofile cpu.out      # shared host-profiling flags
//	                                             # (-cpuprofile/-memprofile/-pprof)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/perf"
	"repro/internal/sim"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "chksim:", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: every failure — flag
// misuse, an unknown workload or scheme, a failing simulation — returns a
// non-nil error, and main maps non-nil onto a non-zero exit.
func run(args []string, out, errw io.Writer) (err error) {
	fs := flag.NewFlagSet("chksim", flag.ContinueOnError)
	fs.SetOutput(errw)
	app := fs.String("app", "SOR-256", "workload, e.g. ISING-512, SOR-256, TSP-16")
	scheme := fs.String("scheme", "", "checkpointing scheme (case, underscores and the Coord_ prefix optional): "+strings.Join(bench.SchemeNames(), ", "))
	interval := fs.Duration("interval", 0, "checkpoint interval (virtual time); default exec/4")
	ckpts := fs.Int("ckpts", 3, "number of checkpoints (0 = unlimited)")
	traceOut := fs.String("trace", "", "write a Chrome trace_event JSON of the checkpointed run to this file")
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

	wl, err := bench.WorkloadByName(*app)
	if err != nil {
		return err
	}
	if *traceOut != "" && *scheme == "" {
		return fmt.Errorf("-trace records a checkpointed run; pick one with -scheme")
	}
	cfg := core.Config{Machine: par.DefaultConfig()}
	base, err := core.Run(wl, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-12s normal execution: %10.2fs  (%d msgs, %.1f MB on the wire)\n",
		wl.Name, base.Exec.Seconds(), base.NetMsgs, float64(base.NetBytes)/1e6)
	if *scheme == "" {
		return nil
	}
	v, err := bench.SchemeByName(*scheme)
	if err != nil {
		return err
	}
	cfg.Scheme = v
	cfg.Interval = sim.Duration(*interval / time.Nanosecond)
	if cfg.Interval == 0 {
		cfg.Interval = base.Exec / sim.Duration(*ckpts+1)
	}
	cfg.MaxCheckpoints = *ckpts
	if *traceOut != "" {
		cfg.Obs = obs.New()
	}
	res, err := core.Run(wl, cfg)
	if err != nil {
		return err
	}
	st := res.Ckpt
	fmt.Fprintf(out, "%-12s under %-10s %10.2fs  (+%.2fs, %.2f%% overhead)\n",
		wl.Name, res.Scheme, res.Exec.Seconds(),
		(res.Exec - base.Exec).Seconds(),
		100*float64(res.Exec-base.Exec)/float64(base.Exec))
	fmt.Fprintf(out, "  interval            %10.2fs\n", cfg.Interval.Seconds())
	fmt.Fprintf(out, "  checkpoints         %10d  (%d global rounds)\n", st.Checkpoints, st.Rounds)
	if v.CommunicationInduced() {
		fmt.Fprintf(out, "  forced/basic/final  %10d / %d / %d\n",
			st.ForcedCkpts, st.Checkpoints-st.ForcedCkpts, st.FinalCkpts)
	}
	fmt.Fprintf(out, "  state written       %10.2f MB\n", float64(st.StateBytes)/1e6)
	fmt.Fprintf(out, "  channel state       %10.2f KB\n", float64(st.ChanBytes)/1e3)
	fmt.Fprintf(out, "  protocol messages   %10d  (%.1f KB)\n", st.ProtoMsgs, float64(st.ProtoBytes)/1e3)
	fmt.Fprintf(out, "  app blocked         %10.3fs  (of which %.3fs memory copies)\n",
		st.AppBlocked.Seconds(), st.MemCopyTime.Seconds())
	fmt.Fprintf(out, "  stable-storage peak %10.2f MB in %d checkpoint files\n",
		float64(res.StoragePeak)/1e6, len(res.Records))
	for i, lat := range st.RoundLatency {
		fmt.Fprintf(out, "  round %d latency     %10.3fs\n", i+1, lat.Seconds())
	}
	if *traceOut != "" {
		o := cfg.Obs
		fmt.Fprintf(out, "  phase totals        sync %.3fs, memcopy %.3fs, disk %.3fs, chan %.3fs, token %.3fs (busy seconds over all nodes)\n",
			o.SpanTotal("ckpt.sync").Seconds(), o.SpanTotal("ckpt.memcopy").Seconds(),
			o.SpanTotal("ckpt.disk_write").Seconds(), o.SpanTotal("ckpt.chan_write").Seconds(),
			o.SpanTotal("ckpt.token_wait").Seconds())
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := o.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(errw, "chksim: wrote Chrome trace to %s (open in Perfetto or chrome://tracing)\n", *traceOut)
	}
	return nil
}
