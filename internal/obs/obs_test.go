package obs

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestHistogramQuantiles checks p50/p95/p99 on known uniform data: the
// values 1..100 into decade buckets interpolate to exactly 50, 95 and 99.
func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	if h.N != 100 || h.Sum != 5050 {
		t.Fatalf("N=%d Sum=%v, want 100/5050", h.N, h.Sum)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 50}, {0.95, 95}, {0.99, 99}, {0, 1}, {1, 100},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := h.Mean(); got != 50.5 {
		t.Errorf("Mean() = %v, want 50.5", got)
	}
}

func TestHistogramOverflowAndClamp(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	for _, v := range []float64{0.5, 1.5, 7, 9} {
		h.Observe(v)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[2] != 2 {
		t.Fatalf("counts = %v, want [1 1 2]", h.Counts)
	}
	// The overflow bucket is clamped to the observed max.
	if got := h.Quantile(0.99); got > 9 {
		t.Errorf("Quantile(0.99) = %v, want <= observed max 9", got)
	}
	// Rank 1 of 4 fills the first bucket: interpolation reaches its upper
	// edge, starting from the observed min (0.5), not the bucket's open 0.
	if got := h.Quantile(0.25); got != 1 {
		t.Errorf("Quantile(0.25) = %v, want 1", got)
	}
	if got := h.Quantile(0.125); got != 0.75 {
		t.Errorf("Quantile(0.125) = %v, want 0.75 (min-clamped interpolation)", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := newHistogram([]float64{10, 20})
	b := newHistogram([]float64{10, 20})
	a.Observe(5)
	b.Observe(15)
	b.Observe(25)
	a.Merge(b)
	if a.N != 3 || a.Sum != 45 || a.Min != 5 || a.Max != 25 {
		t.Fatalf("merged N=%d Sum=%v Min=%v Max=%v", a.N, a.Sum, a.Min, a.Max)
	}
	if a.Counts[0] != 1 || a.Counts[1] != 1 || a.Counts[2] != 1 {
		t.Fatalf("merged counts = %v", a.Counts)
	}
}

// TestNilObserverIsFree asserts the no-op-sink contract: every hot-path
// recording method on a nil observer allocates nothing.
func TestNilObserverIsFree(t *testing.T) {
	var o *Observer
	allocs := testing.AllocsPerRun(200, func() {
		o.Add(3, "mp.msgs_delivered", 1)
		o.Gauge(3, "storage.occupied_bytes", 42)
		o.Observe(3, "ckpt.blocked_time", 0.5)
		o.ObserveDur(3, "storage.hostlink_queue_wait", sim.Millisecond)
		sp := o.Start(3, TidDaemon, "ckpt.disk_write").WithArg("round", 7)
		sp.End()
		o.InstantArg(0, TidCoord, "ckpt.commit", "", 0)
		o.SetScheme("x")
		_ = o.SpanTotal("ckpt.disk_write")
		_ = o.Snapshot()
	})
	if allocs != 0 {
		t.Fatalf("nil observer allocated %v times per run, want 0", allocs)
	}
}

func TestRegistryKeysAndSnapshotOrder(t *testing.T) {
	var now sim.Time
	o := New()
	o.clock = func() sim.Time { return now }
	o.SetScheme("Coord_NB")
	now = sim.Time(5 * sim.Second)
	o.Add(1, "ckpt.marker_rounds", 1)
	o.Add(0, "ckpt.marker_rounds", 2)
	o.Add(0, "ckpt.marker_rounds", 1)
	o.Gauge(8, "storage.occupied_bytes", 1024)
	o.ObserveDur(2, "ckpt.blocked_time", 2*sim.Second)
	o.SetScheme("Indep")
	o.Add(0, "ckpt.marker_rounds", 7)

	snap := o.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("snapshot has %d entries, want 5", len(snap))
	}
	// Sorted by (scheme, name, node).
	want := []Key{
		{"Coord_NB", 2, "ckpt.blocked_time"},
		{"Coord_NB", 0, "ckpt.marker_rounds"},
		{"Coord_NB", 1, "ckpt.marker_rounds"},
		{"Coord_NB", 8, "storage.occupied_bytes"},
		{"Indep", 0, "ckpt.marker_rounds"},
	}
	for i, m := range snap {
		if m.Key != want[i] {
			t.Errorf("snapshot[%d].Key = %+v, want %+v", i, m.Key, want[i])
		}
	}
	if snap[1].Count != 3 {
		t.Errorf("Coord_NB/0 counter = %d, want 3", snap[1].Count)
	}
	if snap[0].Kind != KindHistogram || snap[0].Hist.N != 1 {
		t.Errorf("blocked_time should be a 1-sample histogram, got %+v", snap[0])
	}
	if snap[0].Updated != sim.Time(5*sim.Second) {
		t.Errorf("Updated = %v, want 5s", snap[0].Updated)
	}
	if got := o.CounterTotal("ckpt.marker_rounds"); got != 11 {
		t.Errorf("CounterTotal = %d, want 11", got)
	}
	if got := o.HistTotal("ckpt.blocked_time"); got != 2 {
		t.Errorf("HistTotal = %v, want 2", got)
	}
}

func TestSpanTotalsAndArgs(t *testing.T) {
	var now sim.Time
	o := New()
	o.clock = func() sim.Time { return now }
	sp := o.Start(0, TidDaemon, "ckpt.disk_write").WithArg("round", 3)
	now = sim.Time(2 * sim.Second)
	sp.End()
	sp2 := o.Start(1, TidDaemon, "ckpt.disk_write")
	now = sim.Time(3 * sim.Second)
	sp2.End()
	if got := o.SpanTotal("ckpt.disk_write"); got != 3*sim.Second {
		t.Fatalf("SpanTotal = %v, want 3s", got)
	}
	spans := o.spans
	if len(spans) != 2 || spans[0].ArgKey != "round" || spans[0].ArgVal != 3 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Duration() != 2*sim.Second {
		t.Fatalf("span duration = %v", spans[0].Duration())
	}
}
