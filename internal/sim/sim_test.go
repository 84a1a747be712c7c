package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestSleepAdvancesTime(t *testing.T) {
	e := New()
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * Second)
		woke = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(3*Second) {
		t.Fatalf("woke at %v, want 3s", woke)
	}
}

func TestEventOrderingStableAtSameInstant(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(Second), func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v not FIFO at equal timestamps", order)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(Time(Second), func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(0, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := New()
	g := NewGate(e)
	e.Spawn("stuck", func(p *Proc) { g.Wait(p) })
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "stuck" {
		t.Fatalf("blocked = %v, want [stuck]", dl.Blocked)
	}
}

func TestGateWakesAllWaiters(t *testing.T) {
	e := New()
	g := NewGate(e)
	woken := 0
	for i := 0; i < 5; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			g.Wait(p)
			woken++
		})
	}
	e.At(Time(Second), func() { g.Open() })
	e.Spawn("late", func(p *Proc) {
		p.Sleep(2 * Second)
		g.Wait(p) // already open: must not block
		woken++
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 6 {
		t.Fatalf("woken = %d, want 6", woken)
	}
}

func TestResourceFIFOAndMutualExclusion(t *testing.T) {
	e := New()
	r := NewResource(e, 1)
	var order []string
	use := func(name string, hold Duration) {
		e.Spawn(name, func(p *Proc) {
			r.Acquire(p)
			order = append(order, name)
			if r.InUse() != 1 {
				t.Errorf("InUse = %d during hold", r.InUse())
			}
			p.Sleep(hold)
			r.Release()
		})
	}
	use("a", Second)
	use("b", Second)
	use("c", Second)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
	if got := r.BusyTime(); got != 3*Second {
		t.Fatalf("BusyTime = %v, want 3s", got)
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	e := New()
	r := NewResource(e, 2)
	var finished []Time
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			r.Acquire(p)
			p.Sleep(Second)
			r.Release()
			finished = append(finished, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Two run in [0,1], two in [1,2].
	if finished[0] != Time(Second) || finished[1] != Time(Second) ||
		finished[2] != Time(2*Second) || finished[3] != Time(2*Second) {
		t.Fatalf("finish times %v", finished)
	}
}

func TestMailboxSelectiveReceive(t *testing.T) {
	e := New()
	m := NewMailbox[int](e)
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		// Receive even values first, then odd.
		for i := 0; i < 2; i++ {
			got = append(got, m.Get(p, func(v int) bool { return v%2 == 0 }))
		}
		for i := 0; i < 2; i++ {
			got = append(got, m.GetAny(p))
		}
	})
	e.Spawn("producer", func(p *Proc) {
		for _, v := range []int{1, 3, 2, 4} {
			p.Sleep(Second)
			m.Put(v)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 4, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestKillParkedProcess(t *testing.T) {
	e := New()
	m := NewMailbox[int](e)
	reached := false
	victim := e.Spawn("victim", func(p *Proc) {
		m.GetAny(p)
		reached = true
	})
	e.At(Time(Second), func() { victim.Kill() })
	e.At(Time(2*Second), func() { m.Put(7) }) // stale wake must be harmless
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("killed process continued past blocking point")
	}
	if !victim.Done() || !victim.Killed() {
		t.Fatal("victim not marked done+killed")
	}
	if m.Len() != 1 {
		t.Fatalf("mailbox len = %d, want 1 (message not consumed)", m.Len())
	}
}

func TestKillBeforeStart(t *testing.T) {
	e := New()
	ran := false
	p := e.Spawn("never", func(p *Proc) { ran = true })
	p.Kill()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("killed-before-start process ran")
	}
}

func TestProcessPanicSurfacesAsError(t *testing.T) {
	e := New()
	e.Spawn("boom", func(p *Proc) { panic("kaput") })
	err := e.Run()
	if err == nil || !errors.Is(err, err) || err.Error() == "" {
		t.Fatalf("expected error, got %v", err)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := New()
	var childTime Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(Second)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(Second)
			childTime = c.Now()
		})
		p.Sleep(5 * Second)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != Time(2*Second) {
		t.Fatalf("child finished at %v, want 2s", childTime)
	}
}

func TestYieldOrdersAfterPendingEvents(t *testing.T) {
	e := New()
	var order []string
	e.Spawn("a", func(p *Proc) {
		e.At(e.Now(), func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "a-after-yield")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "event" || order[1] != "a-after-yield" {
		t.Fatalf("order = %v", order)
	}
}

func TestStop(t *testing.T) {
	e := New()
	n := 0
	var tick func()
	tick = func() {
		n++
		e.After(Second, tick)
	}
	e.After(Second, tick)
	e.At(Time(10*Second+1), func() { e.Stop() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("ticks = %d, want 10", n)
	}
}

// TestRunUntilHorizon: a simulation that never ends stops at its horizon with
// the events past it still pending, and a later run resumes exactly where it
// stopped — the next instant's events still in push order. At the stop, a
// run of three same-instant events (plus the tick that joins it) is the
// queue's stage, and the earlier-pushed event heading the next instant sits in
// the heap: popping that one and pushing it back would append it behind the
// run.
func TestRunUntilHorizon(t *testing.T) {
	e := New()
	var order []string
	mark := func(s string) func() { return func() { order = append(order, s) } }
	var tick func()
	tick = func() {
		order = append(order, "tick")
		e.After(Second, tick)
	}
	e.After(Second, tick)
	e.At(Time(3*Second), mark("after-tick"))
	e.At(Time(2*Second), func() {
		for _, s := range []string{"x1", "x2", "x3"} {
			e.At(Time(3*Second), mark(s))
		}
	})
	if err := e.RunUntil(Time(2*Second + 1)); err != ErrHorizon {
		t.Fatalf("RunUntil = %v, want ErrHorizon", err)
	}
	if len(order) != 2 || e.Now() != Time(2*Second) {
		t.Fatalf("%d events ran, now %v: want 2, at 2s", len(order), e.Now())
	}
	e.At(Time(10*Second+1), e.Stop)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"tick", "tick", "after-tick", "x1", "x2", "x3", "tick"}; !slices.Equal(order[:7], want) || len(order) != 14 {
		t.Fatalf("order after resuming = %v, want %v then ticks to 10s", order, want)
	}
}

// TestDeterminism runs a pseudo-random mix of sleeps, resource use and
// mailbox traffic twice and requires identical traces.
func TestDeterminism(t *testing.T) {
	run := func() []string {
		var tracelog []string
		e := New()
		r := NewResource(e, 2)
		m := NewMailbox[string](e)
		for i := 0; i < 6; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 4; j++ {
					p.Sleep(Duration(1+(i*7+j*13)%5) * Millisecond)
					r.Acquire(p)
					p.Sleep(Duration(1+(i+j)%3) * Millisecond)
					r.Release()
					m.Put(fmt.Sprintf("p%d/%d", i, j))
					tracelog = append(tracelog, fmt.Sprintf("%v %s put %d", p.Now(), p.Name(), j))
				}
			})
		}
		e.Spawn("consumer", func(p *Proc) {
			for k := 0; k < 24; k++ {
				v := m.GetAny(p)
				tracelog = append(tracelog, fmt.Sprintf("%v got %s", p.Now(), v))
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return tracelog
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// Property: for any set of sleep durations, processes complete in order of
// duration (stable for ties), i.e. the event queue respects (time, seq).
func TestCompletionOrderProperty(t *testing.T) {
	f := func(ds []uint16) bool {
		if len(ds) == 0 {
			return true
		}
		if len(ds) > 50 {
			ds = ds[:50]
		}
		e := New()
		type fin struct {
			d   Duration
			idx int
		}
		var fins []fin
		for i, d := range ds {
			i, d := i, Duration(d)*Microsecond
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(d)
				fins = append(fins, fin{d, i})
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fins); i++ {
			if fins[i].d < fins[i-1].d {
				return false
			}
			if fins[i].d == fins[i-1].d && fins[i].idx < fins[i-1].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesAt(t *testing.T) {
	if got := BytesAt(1_000_000, 1e6); got != Second {
		t.Fatalf("BytesAt(1MB, 1MB/s) = %v, want 1s", got)
	}
	if got := BytesAt(0, 1e6); got != 0 {
		t.Fatalf("BytesAt(0) = %v, want 0", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{2500 * Millisecond, "2.500s"},
		{3 * Millisecond, "3.000ms"},
		{7 * Microsecond, "7.000µs"},
		{42, "42ns"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

// TestEngineStatsCounters pins the event-loop counters against a schedule
// with a known shape: Pushes counts every scheduled event, Pops only what Run
// executed, and MaxQueueDepth is the high-water mark of the pending queue.
func TestEngineStatsCounters(t *testing.T) {
	e := New()
	const n = 10
	ran := 0
	for i := 0; i < n; i++ {
		e.At(Time(i), func() { ran++ })
	}
	st := e.Stats()
	if st.Pushes != n || st.Pops != 0 || st.MaxQueueDepth != n {
		t.Fatalf("pre-run stats = %+v, want Pushes=%d Pops=0 MaxQueueDepth=%d", st, n, n)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if ran != n || st.Pops != n {
		t.Fatalf("post-run: ran %d, stats %+v, want %d pops", ran, st, n)
	}
	// The high-water mark never shrinks, and a deeper burst raises it: fan
	// out wider than before from a single event.
	e.At(e.Now(), func() {
		for i := 0; i < 3*n; i++ {
			e.At(e.Now().Add(1), func() { ran++ })
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.MaxQueueDepth != 3*n {
		t.Fatalf("MaxQueueDepth = %d after 3n-wide burst, want %d", st.MaxQueueDepth, 3*n)
	}
	if st.Pushes != uint64(4*n+1) || st.Pops != uint64(4*n+1) {
		t.Fatalf("stats = %+v, want Pushes=Pops=%d", st, 4*n+1)
	}
}

// TestEngineStatsCountSleeps verifies the proc-transfer events (Sleep's
// timers) are counted like callback events: the hot path must not bypass the
// telemetry the perf harness samples.
func TestEngineStatsCountSleeps(t *testing.T) {
	e := New()
	const sleeps = 5
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < sleeps; i++ {
			p.Sleep(Duration(i + 1))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	// One activation event from Spawn plus one timer event per Sleep.
	if st.Pushes != sleeps+1 || st.Pops != sleeps+1 {
		t.Fatalf("stats = %+v, want Pushes=Pops=%d", st, sleeps+1)
	}
	if st.ProcsSpawned != 1 {
		t.Fatalf("ProcsSpawned = %d, want 1", st.ProcsSpawned)
	}
}

// TestSelfKillTakesEffectAtNextPark re-checks the documented self-kill
// contract under the proc-transfer pop loop: a process killing itself keeps
// executing until its next park, then unwinds without resuming.
func TestSelfKillTakesEffectAtNextPark(t *testing.T) {
	e := New()
	afterKill := false
	pastPark := false
	victim := e.Spawn("suicide", func(p *Proc) {
		p.Kill()
		afterKill = true // Kill must not unwind the caller mid-frame
		p.Sleep(Second)
		pastPark = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !afterKill {
		t.Fatal("self-kill unwound the process before its next park")
	}
	if pastPark {
		t.Fatal("self-killed process resumed past its park")
	}
	if !victim.Done() || !victim.Killed() {
		t.Fatal("victim not marked done+killed")
	}
	// The stale wake Kill scheduled must drain harmlessly.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestKillOtherAtSameInstant kills a process from an event scheduled at the
// same instant as the victim's pending wakeup, exercising the stale-transfer
// guard in the pop loop (transfer to a done process is a no-op).
func TestKillOtherAtSameInstant(t *testing.T) {
	e := New()
	resumed := false
	victim := e.Spawn("victim", func(p *Proc) {
		p.Sleep(Second)
		resumed = true
	})
	// Fires at the same instant as the victim's timer but was scheduled
	// first, so it runs first and the victim's pending transfer goes stale.
	e.At(Time(Second), func() { victim.Kill() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("victim resumed after a same-instant kill scheduled ahead of its timer")
	}
	if !victim.Done() || !victim.Killed() {
		t.Fatal("victim not marked done+killed")
	}
}

// Yield parks the process and immediately reschedules it at the same virtual
// time, letting other events at this instant run first.
func (p *Proc) Yield() {
	p.wake()
	p.park()
}
