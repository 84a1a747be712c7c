package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	scale     string
	out       string
	selfcheck bool
	setupOnly bool
}

func (o options) smoke() bool { return o.scale == "smoke" }

func (o options) run() error {
	if o.selfcheck {
		return o.runSelfcheck()
	}
	if o.workload == "" {
		_, err := o.runAll(os.Stdout)
		return err
	}
	wl, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.setupOnly {
		_, _, setup := o.setUp(wl)
		fmt.Println(strconv.FormatFloat(setup, 'f', -1, 64))
		return nil
	}
	var res result
	var err error
	if o.trace == 1 {
		res, err = o.traced(wl)
	} else {
		res, err = o.endToEnd(wl)
	}
	if err != nil {
		return err
	}
	fmt.Println(res.jsonLine())
	return nil
}

// setUp generates the workload's inputs and runs the cold pass, which fills
// every first-use cache (routes, writer free list, the apps' reference
// solutions). It returns the pass function, the cold pass, and the seconds
// from process start to here — so work moved out of the timed passes into
// start-up or first use still shows, as setup_s.
func (o options) setUp(wl workload) (func(*pass), passResult, float64) {
	run := wl.build(o.seed, o.smoke())
	cold := runPass(wl, run, false)
	return run, cold, time.Since(processStart).Seconds()
}

// extraSetups is how many fresh processes repeat the set-up so that setup_s
// is a median of three, not one sample.
const extraSetups = 2

// freshSetup repeats the set-up in a new process and returns its setup_s.
func (o options) freshSetup() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-scale", o.scale, "-setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// minTimedPasses is the fewest timed passes a run reports a median over,
// whatever -seconds says.
const minTimedPasses = 3

// endToEnd is the untraced run: set up, then timed passes until -seconds
// have gone by, then the extra set-ups.
func (o options) endToEnd(wl workload) (result, error) {
	run, cold, setup := o.setUp(wl)
	var cells tally
	cells.add(cold)
	var walls, cpus []float64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(walls) < minTimedPasses || time.Now().Add(time.Duration(median(walls)*float64(time.Second))).Before(deadline) {
		p := runPass(wl, run, false)
		walls, cpus = append(walls, p.wall), append(cpus, p.cpu)
		cells.add(p)
	}
	_, rss := selfUsage()
	setups := []float64{setup}
	for i := 0; i < extraSetups; i++ {
		s, err := o.freshSetup()
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s)
	}
	fmt.Printf("workload %s seed %d: %d cells per pass; pass walls %.3f s; set-ups %.3f s\n",
		wl.name, o.seed, cold.cells, walls, setups)
	fmt.Printf("sim_digest %s %016x\n", wl.name, cold.digest)
	return newResult(endToEndMetrics, map[string]float64{
		"wall_s":      median(walls),
		"cpu_s":       median(cpus),
		"peak_rss_mb": rss,
		"setup_s":     median(setups),
		"virt_exec_s": cold.virtExec,
	}, cells.attempted, cells.failed)
}
