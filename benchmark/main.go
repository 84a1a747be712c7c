// Command benchmark is the repository's benchmark: five workloads that load
// the simulator's layers differently, timed end to end with tracing off, and
// a separate traced pass plus layer probes that say where the time went.
// BENCHMARK.json at the repository root names the metrics; README.md in this
// directory says why each workload and metric exists.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// processStart is read as early as the program can: setup_s runs from here
// to the first timed pass.
var processStart = time.Now()

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload to run (default: every workload, untraced then traced)")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&opt.seconds, "seconds", 15, "how long one run measures")
	flag.IntVar(&opt.trace, "trace", 0, "1: traced pass, CPU shares and layer probes instead of the end-to-end metrics")
	flag.StringVar(&opt.scale, "scale", "full", "full: the pinned sizes; smoke: toy sizes for the test")
	flag.StringVar(&opt.out, "out", ".bench_build/trace", "directory for trace-<workload>.json and selfcheck.json")
	flag.BoolVar(&opt.selfcheck, "selfcheck", false, "run every workload twice and require the two sets to agree")
	flag.BoolVar(&opt.setupOnly, "setup-only", false, "generate inputs, run the cold pass, print setup seconds (used by the driver itself)")
	flag.Parse()
	if flag.NArg() > 0 || (opt.trace != 0 && opt.trace != 1) || (opt.scale != "full" && opt.scale != "smoke") {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	// Two threads is what the parallel workload uses and what the smallest
	// box this runs on has; pinning it keeps numbers comparable across hosts.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := opt.run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
