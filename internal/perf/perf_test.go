package perf

import (
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/sim"
)

// TestNilCollectorIsFree pins the disarmed contract the run pipeline relies
// on: a nil collector hands out a nil sampler, and every method on both is a
// safe no-op, so call sites never branch on whether telemetry is armed.
func TestNilCollectorIsFree(t *testing.T) {
	var c *Collector
	s := c.Begin("WL", "none")
	if s != nil {
		t.Fatalf("nil collector returned a live sampler %+v", s)
	}
	s.SetScheme("X")
	s.EndSetup()
	s.EngineStats(sim.EngineStats{Pops: 1})
	s.EndSim()
	s.EndCheck()
	s.Finish()
	s.Finish()
	if got := c.Samples(); got != nil {
		t.Fatalf("nil collector holds samples: %v", got)
	}
}

// TestSamplerPhases covers the armed path: the phase marks partition the
// wall clock, engine counters and codec deltas land in the sample, and
// Finish is idempotent (one sample per run, however many deferred exits).
func TestSamplerPhases(t *testing.T) {
	c := NewCollector()
	s := c.Begin("WL", "none")
	s.SetScheme("NBMS")
	time.Sleep(time.Millisecond)
	s.EndSetup()
	time.Sleep(time.Millisecond)
	s.EngineStats(sim.EngineStats{Pushes: 120, Pops: 100, MaxQueueDepth: 7, ProcsSpawned: 9})
	s.EndSim()
	s.EndCheck()

	// Codec traffic between Begin and Finish must show up as a delta.
	w := codec.NewWriter()
	w.U64(42)
	encoded := len(w.Bytes())

	s.Finish()
	s.Finish() // idempotent

	samples := c.Samples()
	if len(samples) != 1 {
		t.Fatalf("recorded %d samples, want 1", len(samples))
	}
	got := samples[0]
	if got.Workload != "WL" || got.Scheme != "NBMS" {
		t.Fatalf("labels = %q/%q, want WL/NBMS", got.Workload, got.Scheme)
	}
	if got.Setup <= 0 || got.Sim <= 0 {
		t.Fatalf("phase durations not captured: %+v", got)
	}
	if sum := got.Setup + got.Sim + got.Check + got.Shutdown; sum > got.Wall {
		t.Fatalf("phases (%v) exceed wall (%v)", sum, got.Wall)
	}
	if got.Events != 100 || got.Pushes != 120 || got.MaxQueueDepth != 7 || got.Procs != 9 {
		t.Fatalf("engine counters not captured: %+v", got)
	}
	if got.EncBytes < int64(encoded) {
		t.Fatalf("EncBytes = %d, want >= %d (the writer encoded inside the sample)", got.EncBytes, encoded)
	}
}

// TestWallBounds sanity-checks the shared bucket layout: strictly increasing
// and covering sub-millisecond cells up to multi-minute ones.
func TestWallBounds(t *testing.T) {
	if WallBounds[0] > 1e-3 || WallBounds[len(WallBounds)-1] < 100 {
		t.Fatalf("bounds span [%g, %g], want to cover 1ms..100s cells",
			WallBounds[0], WallBounds[len(WallBounds)-1])
	}
	for i := 1; i < len(WallBounds); i++ {
		if WallBounds[i] <= WallBounds[i-1] {
			t.Fatalf("bounds not increasing at %d: %g <= %g", i, WallBounds[i], WallBounds[i-1])
		}
	}
}
