package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/codec"
)

// span is one interval of the traced pass: the pass, a cell inside it, or a
// run phase inside a cell. Times are host microseconds from the pass start.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Parent int     `json:"parent"` // index into the span list; -1 for the pass
}

// spansOf lays the pass out as pass -> cell -> phase. A run sample carries
// phase durations but no clock reading; the sampler finishes as the cell
// returns, so the phases are anchored to the cell's end.
func spansOf(wl string, p passResult) []span {
	us := func(t time.Time) float64 { return float64(t.Sub(p.start).Nanoseconds()) / 1e3 }
	spans := []span{{Name: "pass " + wl, Start: 0, End: us(p.end), Parent: -1}}
	for _, rec := range p.records {
		cell := len(spans)
		spans = append(spans, span{Name: rec.cell.Name(), Start: us(rec.start), End: us(rec.end), Parent: 0})
		s := rec.sample
		if s.Wall == 0 {
			continue
		}
		at := us(rec.end) - float64(s.Wall.Nanoseconds())/1e3
		for _, ph := range []struct {
			name string
			d    time.Duration
		}{{"setup", s.Setup}, {"sim", s.Sim}, {"check", s.Check}, {"shutdown", s.Shutdown}} {
			end := at + float64(ph.d.Nanoseconds())/1e3
			spans = append(spans, span{Name: ph.name, Start: at, End: end, Parent: cell})
			at = end
		}
	}
	return spans
}

// writeTrace stores the spans of a traced pass as trace-<workload>.json.
func writeTrace(dir, wl string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"workload": wl, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+wl+".json"), data, 0o644)
}

// cpuSharePredictions are floors under what the shares were when the
// benchmark was defined; a run prints them beside what it measured.
var cpuSharePredictions = map[string]string{
	"paper-tables": "apps >= 0.4",
	"scale-256":    "runtime_sched + sim + fabric >= 0.6",
	"ckpt-bulk":    "runtime_mem >= 0.4",
}

// traced is the per-layer run: set up, two untraced passes for the overhead
// base, then one pass with every collector armed and a CPU profile around
// it, then the layer probes.
func (o options) traced(wl workload) (result, error) {
	run, cold, _ := o.setUp(wl)
	var cells tally
	cells.add(cold)
	var plain []float64
	for i := 0; i < 2; i++ {
		p := runPass(wl, run, false)
		plain = append(plain, p.wall)
		cells.add(p)
	}

	codec.ArmPerfCounters()
	enc0, dec0 := codec.PerfCounters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var profile bytes.Buffer
	if err := pprof.StartCPUProfile(&profile); err != nil {
		return result{}, err
	}
	p := runPass(wl, run, true)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	enc1, dec1 := codec.PerfCounters()
	cells.add(p) // arming the collectors must not change what is simulated

	v := make(map[string]float64, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		v[d.name] = 0 // a layer the workload never enters reports 0, not nothing
	}
	v["codec.enc_bytes"], v["codec.dec_bytes"] = float64(enc1-enc0), float64(dec1-dec0)
	v["host.allocs"] = float64(ms1.Mallocs - ms0.Mallocs)
	v["host.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	v["host.num_gc"] = float64(ms1.NumGC - ms0.NumGC)
	v["host.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	v["bench.parallel_efficiency"] = p.cpu / (float64(wl.workers) * p.wall)
	v["trace.overhead_pct"] = 100 * (p.wall/median(plain) - 1)
	var linkBusy, diskBusy, execSum float64
	for _, rec := range p.records {
		c, s := rec.res, rec.sample
		v["sim.events"] += float64(s.Events)
		v["sim.pushes"] += float64(s.Pushes)
		v["sim.procs_spawned"] += float64(s.Procs)
		v["sim.max_queue_depth"] = max(v["sim.max_queue_depth"], float64(s.MaxQueueDepth))
		v["fabric.msgs"] += float64(rec.fabricMsgs)
		v["fabric.bytes"] += float64(rec.fabricBytes)
		v["storage.reqs"] += float64(rec.storageReqs)
		v["storage.bytes_written"] += float64(rec.storageWritten)
		v["storage.bytes_read"] += float64(rec.storageRead)
		v["storage.peak_mb"] = max(v["storage.peak_mb"], float64(c.StoragePeak)/(1<<20))
		v["ckpt.checkpoints"] += float64(c.Ckpt.Checkpoints)
		v["ckpt.rounds"] += float64(c.Ckpt.Rounds)
		v["ckpt.proto_msgs"] += float64(c.Ckpt.ProtoMsgs)
		v["ckpt.state_bytes"] += float64(c.Ckpt.StateBytes)
		v["cic.forced_ckpts"] += float64(c.Ckpt.ForcedCkpts)
		v["check.invariant_checks"] += float64(c.Checks)
		if c.Recovered {
			v["check.recovered"]++
		}
		if c.Checks > 0 {
			v["check.cells"]++
		}
		v["core.setup_ms"] += s.Setup.Seconds() * 1e3
		v["core.sim_ms"] += s.Sim.Seconds() * 1e3
		v["core.check_ms"] += s.Check.Seconds() * 1e3
		v["core.shutdown_ms"] += s.Shutdown.Seconds() * 1e3
		if c.Checks == 0 {
			// Only core.Run cells report the busiest host link and server.
			linkBusy += c.MaxHostLinkBusy.Seconds()
			diskBusy += c.MaxDiskBusy.Seconds()
			execSum += c.Exec.Seconds()
		}
	}
	if execSum > 0 {
		v["fabric.hostlink_busy_pct"], v["storage.disk_busy_pct"] = 100*linkBusy/execSum, 100*diskBusy/execSum
	}
	p50, p95, _ := bench.WallQuantiles(p.timings)
	v["bench.cell_wall_p50_ms"], v["bench.cell_wall_p95_ms"] = p50*1e3, p95*1e3

	flat, err := flatByFunction(profile.Bytes())
	if err != nil {
		return result{}, err
	}
	shares := cpuShares(flat)
	for b, share := range shares {
		v["cpu_share."+b] = share
	}
	fmt.Printf("workload %s seed %d: traced pass %.3fs over %d cells, untraced %.3fs\n",
		wl.name, o.seed, p.wall, p.cells, median(plain))
	fmt.Printf("sim_digest %s %016x\n", wl.name, cold.digest)
	if pred, ok := cpuSharePredictions[wl.name]; ok {
		fmt.Printf("cpu_share prediction for %s: %s; measured apps %.2f, runtime_sched+sim+fabric %.2f, runtime_mem %.2f\n",
			wl.name, pred, shares["apps"], shares["runtime_sched"]+shares["sim"]+shares["fabric"], shares["runtime_mem"])
	}
	if err := writeTrace(o.out, wl.name, spansOf(wl.name, p)); err != nil {
		return result{}, err
	}

	reps := 3
	if o.smoke() {
		reps = 1
	}
	probed, err := runProbes(o.smoke(), reps)
	if err != nil {
		return result{}, err
	}
	for name, val := range probed {
		v[name] = val
	}
	return newResult(perLayerMetrics, v, cells.attempted, cells.failed)
}
