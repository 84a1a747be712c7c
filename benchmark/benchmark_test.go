package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/mp"
	"repro/internal/par"
)

// The benchmark re-executes itself for fresh-process set-ups and for the
// run-everything mode. Under `go test` the executable is the test binary, so
// a child marked by this variable runs main instead of the tests.
const asMainEnv = "BENCHMARK_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func smokeOptions(t *testing.T, wl string) options {
	t.Setenv(asMainEnv, "1")
	return options{workload: wl, seed: 1, seconds: 0.05, scale: "smoke", out: t.TempDir()}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTheCode requires BENCHMARK.json and the tables in
// the code to name the same workloads and metrics, in both directions.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bj.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		checkName(wl.name)
		if bj.Workloads[i].Name != wl.name || bj.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, bj.Workloads[i], wl.name, wl.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bj.EndToEnd), len(endToEndMetrics))
	}
	for i, d := range endToEndMetrics {
		checkName(d.name)
		if got := bj.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, got, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if len(bj.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(bj.PerLayer), len(perLayerMetrics))
	}
	for i, d := range perLayerMetrics {
		checkName(d.name)
		if got := bj.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, got, d)
		}
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", bj.RunSeconds, bj.Paths)
	}
}

// TestSmokeRunsEmitEveryMetric drives all five workloads, untraced and
// traced with every probe, at toy sizes, and requires each result to carry
// exactly the metrics of its table.
func TestSmokeRunsEmitEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		o := smokeOptions(t, wl.name)
		res, err := o.endToEnd(wl)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: %d of %d cells failed", wl.name, res.Failed, res.Attempted)
		}
		for _, d := range endToEndMetrics {
			if mv, ok := res.Metrics[d.name]; !ok || mv.Value <= 0 || mv.Unit != d.unit {
				t.Errorf("%s: end-to-end metric %s = %+v", wl.name, d.name, mv)
			}
		}
		if len(res.Metrics) != len(endToEndMetrics) {
			t.Errorf("%s: %d end-to-end metrics emitted, %d defined", wl.name, len(res.Metrics), len(endToEndMetrics))
		}

		res, err = o.traced(wl)
		if err != nil {
			t.Fatalf("%s traced: %v", wl.name, err)
		}
		if !res.Correct {
			t.Errorf("%s traced: %d of %d cells failed", wl.name, res.Failed, res.Attempted)
		}
		for _, d := range perLayerMetrics {
			if mv, ok := res.Metrics[d.name]; !ok || mv.Unit != d.unit {
				t.Errorf("%s: per-layer metric %s = %+v", wl.name, d.name, mv)
			}
		}
		if len(res.Metrics) != len(perLayerMetrics) {
			t.Errorf("%s: %d per-layer metrics emitted, %d defined", wl.name, len(res.Metrics), len(perLayerMetrics))
		}
		for _, must := range []string{"sim.events", "fabric.msgs", "core.sim_ms", "sim.timer_ns_per_event", "codec.delta_mb_per_s"} {
			if res.Metrics[must].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", wl.name, must, res.Metrics[must].Value)
			}
		}

		var tr struct {
			Workload string
			Spans    []span
		}
		data, err := os.ReadFile(filepath.Join(o.out, "trace-"+wl.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &tr); err != nil {
			t.Fatal(err)
		}
		if len(tr.Spans) < 3 || tr.Spans[0].Parent != -1 {
			t.Fatalf("%s: trace has %d spans, root parent %d", wl.name, len(tr.Spans), tr.Spans[0].Parent)
		}
		for i, s := range tr.Spans[1:] {
			if s.Parent < 0 || s.Parent > i || s.End < s.Start {
				t.Errorf("%s: span %d %+v has no earlier parent or ends before it starts", wl.name, i+1, s)
			}
		}
	}
}

// TestPassesRepeatAndSeedsOnlyChangeInputs: two passes over the same inputs
// simulate the same thing; another seed changes which pages PAGES dirties
// and the virtual times, but no workload's cell count.
func TestPassesRepeatAndSeedsOnlyChangeInputs(t *testing.T) {
	for _, wl := range workloads {
		run := wl.build(1, true)
		a, b := runPass(wl, run, false), runPass(wl, run, false)
		if a.digest != b.digest || a.virtExec != b.virtExec {
			t.Errorf("%s: two passes differ: digest %x/%x, virtual %v/%v", wl.name, a.digest, b.digest, a.virtExec, b.virtExec)
		}
		c := runPass(wl, wl.build(2, true), false)
		if c.cells != a.cells {
			t.Errorf("%s: seed 2 ran %d cells, seed 1 ran %d", wl.name, c.cells, a.cells)
		}
		if c.failed != 0 || a.failed != 0 {
			t.Errorf("%s: failed cells: %d, %d", wl.name, a.failed, c.failed)
		}
		if c.virtExec == a.virtExec {
			t.Errorf("%s: seeds 1 and 2 give the same virtual time %v", wl.name, a.virtExec)
		}
	}
	dirtied := func(seed uint64) map[int]bool {
		p := newPagesProg(pagesConfig{Seed: seed, StateBytes: 1 << 20, Iters: 100, DirtyPer: 2}, 0, 8)
		set := map[int]bool{}
		for i := 0; i < p.cfg.Iters; i++ {
			for k := 0; k < p.cfg.DirtyPer; k++ {
				set[p.dirtyPage(i, k)] = true
			}
		}
		return set
	}
	one, two := dirtied(1), dirtied(2)
	shared := 0
	for pg := range one {
		if two[pg] {
			shared++
		}
	}
	if shared == len(one) {
		t.Errorf("seeds 1 and 2 dirty the same %d pages", shared)
	}
}

// TestFailingCheckCountsAsFailedCell injects a workload whose result check
// fails and requires the run to report it against the cells attempted.
func TestFailingCheckCountsAsFailedCell(t *testing.T) {
	ring := bench.RingWorkloadN(8, 64, 4, 1e5)
	bad := ring
	bad.Check = func([]mp.Program) error { return errors.New("injected") }
	wl := workload{name: "scale-256", workers: 1, build: func(uint64, bool) func(*pass) {
		cells := []bench.Cell{{App: "good", Scheme: "normal"}, {App: "bad", Scheme: "normal"}}
		return func(p *pass) {
			p.cells(cells, func(i int, in instr) (cellResult, error) {
				return baselineRun([]apps.Workload{ring, bad}[i], par.DefaultConfig(), in)
			})
		}
	}}
	res, err := smokeOptions(t, wl.name).endToEnd(wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed*2 != res.Attempted {
		t.Errorf("correct=%v, %d of %d cells failed; want half of them", res.Correct, res.Failed, res.Attempted)
	}
}

// TestCPUProfileBuckets parses a real profile and spot-checks the bucketing.
func TestCPUProfileBuckets(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).transfer": "sim",
		"repro/internal/apps.(*TSP).search":     "apps",
		"repro/internal/obs.(*Observer).Add":    "other",
		"runtime.memmove":                       "runtime_mem",
		"runtime.gcDrain":                       "runtime_mem",
		"runtime.chanrecv":                      "runtime_sched",
		"runtime.(*mcache).nextFree":            "runtime_mem",
		"runtime.mapaccess2":                    "other",
		"main.fill":                             "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1<<16)
	for start := time.Now(); time.Since(start) < 150*time.Millisecond; {
		fill(b, uint64(len(b)))
	}
	pprof.StopCPUProfile()
	flat, err := flatByFunction(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Which leaf gets fill's samples depends on inlining and on -race, so only
	// require that a busy loop of 150 ms left named samples.
	if len(flat) == 0 || flat["?"] != 0 {
		t.Errorf("profile has no named samples: %v", flat)
	}
	var total float64
	for _, s := range cpuShares(flat) {
		total += s
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("cpu shares sum to %v", total)
	}
}
