// Package perf is the host-side performance telemetry layer: where package
// obs measures the *virtual* time of the simulated machine, perf measures
// what the simulation costs the *host* — wall-clock per engine phase,
// event-loop counters, allocations, GC pauses, and codec bytes — so the
// engine's own hot paths can be profiled and attributed per layer (the
// benchmark/ harness reads its samples).
//
// The package mirrors obs's central invariant: a nil *Collector is a valid,
// zero-cost sink, and every sampler method is a no-op on a nil receiver, so
// the run pipeline arms telemetry unconditionally. An armed collector only
// ever reads host clocks and host counters — it never touches virtual time —
// so armed runs produce byte-identical simulated output to plain runs
// (pinned by TestArmedPerfTelemetryGoldenTables in package check).
//
// One RunSample is recorded per simulation run (one benchmark cell). The
// per-phase split follows the run pipeline: Setup (machine assembly and
// scheme attach), Sim (the event loop), Check (oracle verification), and
// Shutdown (process-goroutine reaping). MemStats and codec deltas are
// process-global, so per-cell attribution is only exact when cells run
// serially.
package perf

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/sim"
)

// WallBounds are the obs.Histogram bucket upper bounds, in seconds, used for
// per-cell host wall-clock times: log-spaced from 100µs to ~2 minutes, ~12
// buckets per decade so the interpolated p95/p99 stay within a few percent.
var WallBounds = wallBounds()

func wallBounds() []float64 {
	var b []float64
	for v := 1e-4; v < 130; v *= 1.2 {
		b = append(b, v)
	}
	return b
}

// RunSample is the host-side measurement of one simulation run.
type RunSample struct {
	Workload string
	Scheme   string

	// Wall is launch-to-teardown host time; the phases partition it.
	Wall, Setup, Sim, Check, Shutdown time.Duration

	// Event-loop counters from sim.EngineStats.
	Events        uint64 // events executed
	Pushes        uint64 // events scheduled
	MaxQueueDepth int
	Procs         int

	// runtime.MemStats deltas across the run.
	Allocs     uint64 // heap objects allocated
	AllocBytes uint64
	GCPause    time.Duration
	NumGC      uint32

	// Codec stream bytes encoded/decoded (checkpoint images, messages).
	EncBytes, DecBytes int64
}

// Collector aggregates RunSamples across a benchmark matrix. It is shared by
// concurrently running cells, so recording synchronizes internally. The nil
// collector is the disarmed sink: Begin returns a nil sampler whose methods
// all no-op.
type Collector struct {
	mu      sync.Mutex
	samples []RunSample
}

// NewCollector returns an empty, armed collector and latches the codec byte
// counters on for the rest of the process.
func NewCollector() *Collector {
	codec.ArmPerfCounters()
	return &Collector{}
}

// Samples returns a copy of every recorded sample in recording order (which
// under a parallel runner is completion order — sort by name before
// rendering anything that must be deterministic).
func (c *Collector) Samples() []RunSample {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]RunSample(nil), c.samples...)
}

func (c *Collector) record(s RunSample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = append(c.samples, s)
}

// Begin opens a sampler for one run: it snapshots MemStats and the codec
// counters and starts the phase clock. On a nil collector it returns a nil
// sampler, on which every method is a free no-op — the pipeline calls the
// sampler unconditionally.
func (c *Collector) Begin(workload, scheme string) *RunSampler {
	if c == nil {
		return nil
	}
	s := &RunSampler{c: c}
	s.sample.Workload = workload
	s.sample.Scheme = scheme
	s.enc0, s.dec0 = codec.PerfCounters()
	runtime.ReadMemStats(&s.ms0)
	s.start = time.Now()
	s.mark = s.start
	return s
}

// RunSampler measures one run between a collector's Begin and Finish. It is
// used from a single goroutine (the one executing the run).
type RunSampler struct {
	c          *Collector
	sample     RunSample
	ms0        runtime.MemStats
	enc0, dec0 int64
	start      time.Time
	mark       time.Time
	done       bool
}

func (s *RunSampler) phase(d *time.Duration) {
	now := time.Now()
	*d += now.Sub(s.mark)
	s.mark = now
}

// SetScheme relabels the sample (the run pipeline resolves the scheme's
// canonical name only after attaching it).
func (s *RunSampler) SetScheme(name string) {
	if s != nil {
		s.sample.Scheme = name
	}
}

// EndSetup closes the machine-assembly phase.
func (s *RunSampler) EndSetup() {
	if s != nil {
		s.phase(&s.sample.Setup)
	}
}

// EndSim closes the event-loop phase.
func (s *RunSampler) EndSim() {
	if s != nil {
		s.phase(&s.sample.Sim)
	}
}

// EndCheck closes the result-verification phase.
func (s *RunSampler) EndCheck() {
	if s != nil {
		s.phase(&s.sample.Check)
	}
}

// EngineStats folds the engine's event-loop counters into the sample.
func (s *RunSampler) EngineStats(st sim.EngineStats) {
	if s == nil {
		return
	}
	s.sample.Events = st.Pops
	s.sample.Pushes = st.Pushes
	s.sample.MaxQueueDepth = st.MaxQueueDepth
	s.sample.Procs = st.ProcsSpawned
}

// Finish attributes the time since the last phase mark to Shutdown, computes
// the MemStats and codec deltas, and records the sample. It is idempotent so
// it can sit in a defer on every exit path.
func (s *RunSampler) Finish() {
	if s == nil || s.done {
		return
	}
	s.done = true
	s.phase(&s.sample.Shutdown)
	s.sample.Wall = time.Since(s.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.sample.Allocs = ms.Mallocs - s.ms0.Mallocs
	s.sample.AllocBytes = ms.TotalAlloc - s.ms0.TotalAlloc
	s.sample.GCPause = time.Duration(ms.PauseTotalNs - s.ms0.PauseTotalNs)
	s.sample.NumGC = ms.NumGC - s.ms0.NumGC
	enc, dec := codec.PerfCounters()
	s.sample.EncBytes = enc - s.enc0
	s.sample.DecBytes = dec - s.dec0
	s.c.record(s.sample)
}
