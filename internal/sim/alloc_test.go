package sim

import "testing"

// alloc_test.go — allocation-regression pins for the engine's hot path. The
// event queue was once the simulator's largest allocation site (interface
// boxing in container/heap plus a closure per Sleep/wake/spawn); these tests
// pin the replacement at zero steady-state allocations so a regression shows
// up as a test failure, not as a slow drift in the benchmark's wall clock.

// TestAllocsQueueSteadyState pins push/pop on a capacity-warm event queue at
// zero allocations per cycle.
func TestAllocsQueueSteadyState(t *testing.T) {
	var q eventQueue
	for i := 0; i < 1024; i++ {
		q.push(event{at: Time(i), seq: uint64(i + 1)})
	}
	for q.len() > 0 {
		q.pop()
	}
	var seq uint64
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			seq++
			q.push(event{at: Time(seq % 7), seq: seq})
		}
		for q.len() > 0 {
			q.pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state queue push/pop allocates %.1f objects per cycle, want 0", allocs)
	}
}

// TestAllocsQueueBursts pins the queue's runs at zero allocations per
// steady-state cycle: bursts of 1–16 same-time pushes, several runs per time,
// spill into overflow slices, drain with pops interleaved, and hand the
// slices back for the next cycle's runs to reuse.
func TestAllocsQueueBursts(t *testing.T) {
	var q eventQueue
	var seq uint64
	cycle := func() {
		for i := 0; i < 64; i++ {
			at := Time(seq % 7)
			for k := 1 + i%16; k > 0; k-- {
				seq++
				q.push(event{at: at, seq: seq})
			}
			if i%8 == 7 {
				for j := 0; j < 20; j++ {
					q.pop()
				}
			}
		}
		for q.len() > 0 {
			q.pop()
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if len(q.spill) == 0 || len(q.free) != len(q.spill) {
		t.Fatalf("after draining, %d of %d overflow slices are free: want every one, and some", len(q.free), len(q.spill))
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state burst push/pop allocates %.1f objects per cycle, want 0", allocs)
	}
}

// TestAllocsEngineScheduleRun pins the engine's schedule/pop cycle — At with
// a reused callback, then Run draining the queue — at zero allocations once
// the queue's slice is warm. This is the engine-context half of the hot path;
// the process half (Sleep, wake) rides the same atProc/pop machinery.
func TestAllocsEngineScheduleRun(t *testing.T) {
	e := New()
	fn := func() {}
	// Warm the queue's backing array past the test's working set.
	for i := 0; i < 256; i++ {
		e.At(e.Now(), fn)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("warmup Run: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			e.At(e.Now().Add(Duration(i)), fn)
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/run allocates %.1f objects per cycle, want 0", allocs)
	}
}

// TestAllocsSleepingProc pins the process-transfer path: a sleeping process
// costs two events per cycle (timer fire, next sleep) and must not allocate —
// Sleep and wake schedule a proc-transfer event, not a closure.
func TestAllocsSleepingProc(t *testing.T) {
	e := New()
	stop := false
	var p *Proc
	e.Spawn("sleeper", func(sp *Proc) {
		p = sp
		for !stop {
			sp.Sleep(1)
			sp.park()
		}
	}).SetDaemon(true)
	if err := e.Run(); err != nil {
		t.Fatalf("spawn Run: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			p.wake()
			if err := e.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state sleep/wake allocates %.1f objects per cycle, want 0", allocs)
	}
	stop = true
	p.wake()
	if err := e.Run(); err != nil {
		t.Fatalf("final Run: %v", err)
	}
	e.Shutdown()
}
