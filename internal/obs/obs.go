// Package obs is the simulation-wide observability layer: a metrics
// registry (counters, gauges, fixed-bucket histograms) keyed by
// scheme/node/name, plus a span/instant event recorder for the phases of
// each checkpoint round, all timestamped in *virtual* sim.Time so
// instrumented runs stay bit-for-bit reproducible.
//
// The package is built around one invariant: a nil *Observer is a valid,
// zero-cost sink. Every recording method is a no-op on a nil receiver and
// allocates nothing, so the simulation's hot paths (message sends, storage
// service, protocol steps) call them unconditionally. An instrumented run
// executes the exact same virtual schedule as an uninstrumented one because
// the Observer only reads the clock — it never sleeps, parks, or schedules
// events (asserted by TestObserverDoesNotPerturbSimulation in package core).
//
// Recorded data is exported two ways: Snapshot for the metrics registry,
// and WriteChromeTrace for a Chrome trace_event JSON timeline (one pid per
// node, one tid per process) that opens directly in chrome://tracing or
// https://ui.perfetto.dev.
package obs

import (
	"sort"
	"sync"

	"repro/internal/sim"
)

// Thread ids within a node's trace process. One pid per node, one tid per
// process on the node, mirroring the machine's process structure.
const (
	TidApp    = 0 // the application process
	TidDaemon = 1 // the checkpointer daemon (and the storage server on the host pid)
	TidProto  = 2 // engine-context protocol activity (marker handling, sync windows)
	TidCoord  = 3 // coordinator-wide activity (global rounds, recovery orchestration)
)

// Key identifies one metric: the checkpointing scheme label of the run, the
// node (pid) it was recorded on, and the dotted metric name, e.g.
// {"Coord_NBMS", 3, "ckpt.blocked_time"}.
type Key struct {
	Scheme string
	Node   int
	Name   string
}

// Kind discriminates the metric types of the registry.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Metric is one registry entry. Count holds a counter's value; Value a
// gauge's last set value; Hist a histogram's buckets. Updated is the virtual
// time of the last recording.
type Metric struct {
	Key     Key
	Kind    Kind
	Count   int64
	Value   float64
	Hist    *Histogram
	Updated sim.Time
}

// SpanEvent is one completed phase: a named interval of virtual time on a
// (pid, tid) track.
type SpanEvent struct {
	Pid, Tid   int
	Name       string
	Start, End sim.Time
	Seq        uint64 // append order, for stable export sorting
	ArgKey     string // optional single annotation, e.g. "round"
	ArgVal     int64
}

// Duration returns the span's extent.
func (e SpanEvent) Duration() sim.Duration { return e.End.Sub(e.Start) }

// InstantEvent is one point event (e.g. a checkpoint commit).
type InstantEvent struct {
	Pid, Tid int
	Name     string
	At       sim.Time
	Seq      uint64
	ArgKey   string
	ArgVal   int64
}

// Observer is the recording sink. The zero value is not used directly;
// create observers with New. A nil *Observer is the disabled sink: all
// methods are safe and free on it.
//
// An Observer is safe for concurrent use: a single simulation records from
// one goroutine at a time (the engine's handoff discipline), but the bench
// matrix runner shares one observer across worker goroutines for its
// aggregate per-cell metrics, so all recording and reading methods
// synchronize internally.
type Observer struct {
	mu       sync.Mutex
	clock    func() sim.Time
	scheme   string
	metrics  map[Key]*Metric
	spans    []SpanEvent
	instants []InstantEvent
	pidNames map[int]string
	tidNames map[[2]int]string
	seq      uint64
}

// New returns an empty observer. Bind it to a simulation engine (or any
// virtual clock) before recording; unbound observers timestamp everything
// at zero.
func New() *Observer {
	return &Observer{
		scheme:   "none",
		metrics:  make(map[Key]*Metric),
		pidNames: make(map[int]string),
		tidNames: make(map[[2]int]string),
	}
}

// Enabled reports whether the observer records anything; it is the guard for
// instrumentation whose *inputs* are expensive to compute (everything else
// can rely on the nil no-ops).
func (o *Observer) Enabled() bool { return o != nil }

// Bind sets the observer's clock to the engine's virtual time.
func (o *Observer) Bind(eng *sim.Engine) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.clock = eng.Now
}

// BindClock sets an arbitrary virtual clock (tests).
func (o *Observer) BindClock(fn func() sim.Time) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.clock = fn
}

// SetScheme sets the scheme label applied to all subsequently recorded
// metrics. The default label is "none".
func (o *Observer) SetScheme(name string) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.scheme = name
}

// Scheme returns the current scheme label ("" on the nil observer).
func (o *Observer) Scheme() string {
	if o == nil {
		return ""
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.scheme
}

// PidName names a trace process (pid) for the exporter, e.g. "node3", "host".
func (o *Observer) PidName(pid int, name string) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.pidNames[pid] = name
}

// TidName overrides a thread name for the exporter (the defaults follow the
// Tid* constants).
func (o *Observer) TidName(pid, tid int, name string) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.tidNames[[2]int{pid, tid}] = name
}

func (o *Observer) now() sim.Time {
	if o.clock == nil {
		return 0
	}
	return o.clock()
}

func (o *Observer) metric(node int, name string, kind Kind) *Metric {
	k := Key{Scheme: o.scheme, Node: node, Name: name}
	m := o.metrics[k]
	if m == nil {
		m = &Metric{Key: k, Kind: kind}
		if kind == KindHistogram {
			m.Hist = newHistogram(DefaultDurationBounds)
		}
		o.metrics[k] = m
	}
	return m
}

// Add increments the counter scheme/node/name by delta.
func (o *Observer) Add(node int, name string, delta int64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	m := o.metric(node, name, KindCounter)
	m.Count += delta
	m.Updated = o.now()
}

// Gauge sets the gauge scheme/node/name to v.
func (o *Observer) Gauge(node int, name string, v float64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	m := o.metric(node, name, KindGauge)
	m.Value = v
	m.Updated = o.now()
}

// Observe records v into the histogram scheme/node/name.
func (o *Observer) Observe(node int, name string, v float64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	m := o.metric(node, name, KindHistogram)
	m.Hist.Observe(v)
	m.Updated = o.now()
}

// ObserveDur records a virtual duration, in seconds, into the histogram
// scheme/node/name.
func (o *Observer) ObserveDur(node int, name string, d sim.Duration) {
	o.Observe(node, name, d.Seconds())
}

// Span is an open phase started by Start. It is a value: copy it freely,
// call End exactly once when the phase completes. The zero Span (and any
// span from a nil observer) is inert.
type Span struct {
	o      *Observer
	pid    int
	tid    int
	name   string
	start  sim.Time
	argKey string
	argVal int64
}

// Start opens a span named name on the (pid, tid) track at the current
// virtual time.
func (o *Observer) Start(pid, tid int, name string) Span {
	if o == nil {
		return Span{}
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return Span{o: o, pid: pid, tid: tid, name: name, start: o.now()}
}

// WithArg returns a copy of the span carrying a single integer annotation
// (e.g. the round number), exported into the trace event's args.
func (sp Span) WithArg(key string, v int64) Span {
	sp.argKey, sp.argVal = key, v
	return sp
}

// End closes the span at the current virtual time and records it.
func (sp Span) End() {
	o := sp.o
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.seq++
	o.spans = append(o.spans, SpanEvent{
		Pid: sp.pid, Tid: sp.tid, Name: sp.name,
		Start: sp.start, End: o.now(), Seq: o.seq,
		ArgKey: sp.argKey, ArgVal: sp.argVal,
	})
}

// Instant records a point event on the (pid, tid) track.
func (o *Observer) Instant(pid, tid int, name string) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.seq++
	o.instants = append(o.instants, InstantEvent{
		Pid: pid, Tid: tid, Name: name, At: o.now(), Seq: o.seq,
	})
}

// InstantArg is Instant with a single integer annotation.
func (o *Observer) InstantArg(pid, tid int, name, key string, v int64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.seq++
	o.instants = append(o.instants, InstantEvent{
		Pid: pid, Tid: tid, Name: name, At: o.now(), Seq: o.seq,
		ArgKey: key, ArgVal: v,
	})
}

// Spans returns a copy of all completed spans in recording order.
func (o *Observer) Spans() []SpanEvent {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]SpanEvent(nil), o.spans...)
}

// SpanTotal returns the summed virtual duration of all completed spans with
// the given name, across all pids and tids.
func (o *Observer) SpanTotal(name string) sim.Duration {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	var total sim.Duration
	for _, e := range o.spans {
		if e.Name == name {
			total += e.Duration()
		}
	}
	return total
}

// CounterTotal returns the sum of the named counter over all nodes and
// scheme labels.
func (o *Observer) CounterTotal(name string) int64 {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	var total int64
	for k, m := range o.metrics {
		if k.Name == name && m.Kind == KindCounter {
			total += m.Count
		}
	}
	return total
}

// HistTotal returns the sum of all values observed into the named histogram
// over all nodes and scheme labels (for duration histograms: total seconds).
func (o *Observer) HistTotal(name string) float64 {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	var total float64
	for k, m := range o.metrics {
		if k.Name == name && m.Kind == KindHistogram {
			total += m.Hist.Sum
		}
	}
	return total
}

// Snapshot returns the registry contents, sorted by (scheme, name, node).
// The returned Metric values are copies, histograms included, so a snapshot
// stays stable even if other goroutines keep recording.
func (o *Observer) Snapshot() []Metric {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]Metric, 0, len(o.metrics))
	for _, m := range o.metrics {
		c := *m
		if c.Hist != nil {
			c.Hist = c.Hist.Clone()
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Scheme != b.Scheme {
			return a.Scheme < b.Scheme
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Node < b.Node
	})
	return out
}
