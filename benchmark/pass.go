package main

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/sim"
)

// cellResult is what one finished cell contributes to the digest and to the
// per-layer counts. Every field is simulated, so it repeats exactly.
type cellResult struct {
	Exec                         sim.Duration
	Ckpt                         ckpt.Stats
	NetMsgs, NetBytes            int64
	StoragePeak                  int64
	MaxHostLinkBusy, MaxDiskBusy sim.Duration
	Checks                       int64
	Recovered                    bool
}

func fromCore(r core.Result) cellResult {
	return cellResult{
		Exec: r.Exec, Ckpt: r.Ckpt,
		NetMsgs: r.NetMsgs, NetBytes: r.NetBytes, StoragePeak: r.StoragePeak,
		MaxHostLinkBusy: r.MaxHostLinkBusy, MaxDiskBusy: r.MaxDiskBusy,
	}
}

// instr is the instrumentation a cell arms on its run. The zero value is the
// untraced pass: both collectors nil, which the layers treat as free.
type instr struct {
	Perf *perf.Collector
	Obs  *obs.Observer
}

// cellRecord is one executed cell of a pass.
type cellRecord struct {
	cell       bench.Cell
	res        cellResult
	err        error
	start, end time.Time

	// Traced passes only.
	sample                                   perf.RunSample // zero if the cell recorded none
	fabricMsgs, fabricBytes                  int64
	storageReqs, storageWritten, storageRead int64
}

// pass is one execution of a workload: every cell once, phase by phase.
type pass struct {
	runner  *bench.Runner
	traced  bool
	records []cellRecord
}

// cells runs one phase on the runner's pool and returns the results in cell
// order. A failing cell is recorded and counted, never fatal: the benchmark
// reports failures against cells attempted.
func (p *pass) cells(cells []bench.Cell, fn func(i int, in instr) (cellResult, error)) []cellResult {
	recs := make([]cellRecord, len(cells))
	// ForEach only returns an error a cell function returned or the context's.
	_ = p.runner.ForEach(context.Background(), cells, func(_ context.Context, i int, c bench.Cell) error {
		rec := &recs[i]
		rec.cell = c
		var in instr
		if p.traced {
			in = instr{Perf: perf.NewCollector(), Obs: obs.New()}
		}
		rec.start = time.Now()
		rec.res, rec.err = fn(i, in)
		rec.end = time.Now()
		if p.traced {
			if s := in.Perf.Samples(); len(s) > 0 {
				rec.sample = s[len(s)-1]
			}
			rec.fabricMsgs = in.Obs.CounterTotal("fabric.msgs_sent")
			rec.fabricBytes = in.Obs.CounterTotal("fabric.bytes_sent")
			rec.storageReqs = in.Obs.CounterTotal("storage.requests")
			rec.storageWritten = in.Obs.CounterTotal("storage.bytes_written")
			rec.storageRead = in.Obs.CounterTotal("storage.bytes_read")
		}
		return nil
	})
	out := make([]cellResult, len(recs))
	for i := range recs {
		out[i] = recs[i].res
	}
	p.records = append(p.records, recs...)
	return out
}

// passResult summarizes a finished pass.
type passResult struct {
	start, end time.Time
	wall, cpu  float64 // host seconds
	virtExec   float64 // summed simulated execution time, seconds
	digest     uint64
	cells      int
	failed     int
	records    []cellRecord
	timings    []bench.CellTime // the runner's per-cell walls
}

// tally counts cells attempted and failed over the passes of a run. The
// simulation is deterministic, so a pass whose digest differs from the first
// pass's computed something else, whatever its cells said: all of it fails.
type tally struct {
	attempted, failed int
	digest            uint64
	started           bool
}

func (t *tally) add(p passResult) {
	if !t.started {
		t.digest, t.started = p.digest, true
	}
	t.attempted += p.cells
	if p.digest != t.digest {
		t.failed += p.cells
	} else {
		t.failed += p.failed
	}
}

// selfUsage returns the process's user+system CPU seconds so far and its
// peak resident set in MiB (Linux reports ru_maxrss in KiB).
func selfUsage() (cpu, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// runPass executes one pass. The collection it forces first puts every pass
// at the same heap starting point, which is most of what makes two passes of
// the same code comparable.
func runPass(wl workload, run func(*pass), traced bool) passResult {
	runtime.GC()
	p := &pass{runner: bench.NewRunner(wl.workers, nil), traced: traced}
	cpu0, _ := selfUsage()
	start := time.Now()
	run(p)
	end := time.Now()
	cpu1, _ := selfUsage()
	r := passResult{start: start, end: end, wall: end.Sub(start).Seconds(), cpu: cpu1 - cpu0,
		cells: len(p.records), records: p.records, timings: p.runner.Timings()}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	var virt sim.Duration // summed as integer nanoseconds, so the total repeats exactly
	for _, rec := range p.records {
		if rec.err != nil {
			r.failed++
		}
		c := rec.res
		virt += c.Exec
		recovered := int64(0)
		if c.Recovered {
			recovered = 1
		}
		for _, v := range []int64{int64(c.Exec), int64(c.Ckpt.Checkpoints), int64(c.Ckpt.Rounds),
			c.Ckpt.StateBytes, c.Ckpt.ChanBytes, c.Ckpt.ProtoMsgs, c.Ckpt.ProtoBytes,
			int64(c.Ckpt.ForcedCkpts), c.NetMsgs, c.NetBytes, c.StoragePeak, c.Checks, recovered} {
			put(v)
		}
	}
	r.virtExec, r.digest = virt.Seconds(), h.Sum64()
	return r
}
