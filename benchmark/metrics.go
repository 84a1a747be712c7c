package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric. BENCHMARK.json repeats these tables; the test
// requires the two to agree in both directions.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	exact  bool    // simulated, so two runs of one program on one seed must agree exactly
}

// endToEndMetrics are measured with tracing off, one value per run: the
// median over the run's timed passes (setup_s: over its set-ups). Failures
// are not a metric here because a ratio that is always 0 cannot carry a
// relative bound; every run reports them as failed/attempted beside the
// metrics.
var endToEndMetrics = []metricDef{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.20},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "virt_exec_s", unit: "s", better: "lower", bound: 0.01, exact: true},
}

// perLayerMetrics come from the traced pass (exact counts, phase walls, CPU
// shares) and from the layer probes. README.md lists which end-to-end metric
// each should move, on which workload.
var perLayerMetrics = func() []metricDef {
	var defs []metricDef
	exact := false
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{name: n, unit: unit, better: better, exact: exact})
		}
	}
	// Simulated counts of the traced pass.
	exact = true
	add("count", "lower", "sim.events", "sim.pushes", "sim.procs_spawned", "sim.max_queue_depth",
		"fabric.msgs", "storage.reqs", "ckpt.proto_msgs", "cic.forced_ckpts")
	add("bytes", "lower", "fabric.bytes", "storage.bytes_written", "storage.bytes_read",
		"codec.enc_bytes", "codec.dec_bytes", "ckpt.state_bytes")
	add("MiB", "lower", "storage.peak_mb")
	add("count", "higher", "ckpt.checkpoints", "ckpt.rounds", "check.cells", "check.invariant_checks", "check.recovered")
	add("%", "lower", "fabric.hostlink_busy_pct", "storage.disk_busy_pct")
	exact = false
	// Host-side counts of the traced pass.
	add("count", "lower", "host.allocs", "host.num_gc")
	add("MiB", "lower", "host.alloc_mb")
	add("ms", "lower", "host.gc_pause_ms")
	// Phase walls of the traced pass.
	add("ms", "lower", "core.setup_ms", "core.sim_ms", "core.check_ms", "core.shutdown_ms",
		"bench.cell_wall_p50_ms", "bench.cell_wall_p95_ms")
	add("ratio", "higher", "bench.parallel_efficiency")
	add("%", "lower", "trace.overhead_pct")
	// CPU shares of the traced pass, flat samples bucketed by package.
	for _, b := range cpuBuckets {
		add("ratio", "lower", "cpu_share."+b)
	}
	// Probes: host cost of one public operation of one layer.
	add("ns", "lower", "sim.timer_ns_per_event", "sim.proc_switch_ns", "sim.spawn_ns_per_proc",
		"sim.resource_handoff_ns", "sim.mailbox_ns_per_msg",
		"fabric.send_ns_per_msg", "fabric.send_ns_per_packet_hop", "topo.route_ns",
		"par.storage_call_ns", "storage.write_ns_per_req", "storage.read_ns_per_req",
		"mp.pingpong_ns_per_msg", "mp.reduce_ns_per_op")
	add("ms", "lower", "par.new_machine_ms_256", "par.new_machine_ms_1024",
		"ckpt.round_host_ms.coord", "ckpt.round_host_ms.indep", "ckpt.round_host_ms.cic")
	add("MB/s", "higher", "storage.write_mb_per_s",
		"codec.bytes8_mb_per_s", "codec.f64s_enc_mb_per_s", "codec.f64s_dec_mb_per_s",
		"codec.base_rle_mb_per_s", "codec.delta_mb_per_s", "codec.apply_delta_mb_per_s",
		"codec.reconstruct_mb_per_s", "par.dirty_scan_mb_per_s")
	add("us", "lower", "rdg.recovery_line_us")
	for _, app := range []string{"ISING", "SOR", "GAUSS", "ASP", "NBODY", "TSP", "NQUEENS"} {
		add("ms", "lower", "apps.kernel_host_ms."+app)
	}
	return defs
}()

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult checks that values holds exactly the metrics of defs and pairs
// each with its unit.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int) (result, error) {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		return r, fmt.Errorf("%d values for %d metrics", len(values), len(defs))
	}
	return r, nil
}

func (r result) jsonLine() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // finite floats and strings only
	}
	return string(b)
}

// median returns the middle of vs (mean of the middle two when even).
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
