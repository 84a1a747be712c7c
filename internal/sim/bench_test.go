package sim

import (
	"math/rand"
	"testing"
)

// bench_test.go — microbenchmarks of the engine's event queue, benchstat-
// friendly: run with
//
//	go test ./internal/sim -run '^$' -bench EventQueue -count 10 | benchstat -
//
// and compare against the refQueue variants to see what retiring
// container/heap bought. The 1e3/1e5 pending-event sizes bracket the queue
// depths real simulations reach (a quick-matrix cell idles around a few
// hundred pending events; the E14 scaling matrix peaks at about 3,100, in its
// 1024-node cells, and the 1024-node Coord_NB cell it leaves out at 16,910).

// benchQueue abstracts the two implementations so the benchmark bodies are
// shared and any fixed overhead cancels out of the comparison.
type benchQueue interface {
	len() int
	push(event)
	pop() event
}

func benchPushPop(b *testing.B, q benchQueue, pending int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	times := make([]Time, 4096)
	for i := range times {
		times[i] = Time(rng.Intn(1 << 20))
	}
	var seq uint64
	for i := 0; i < pending; i++ {
		seq++
		q.push(event{at: times[i%len(times)], seq: seq})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One steady-state cycle: replace the minimum, as a timer-driven
		// simulation does when each fired event schedules its successor.
		e := q.pop()
		seq++
		q.push(event{at: e.at + Time(times[i%len(times)]%1024), seq: seq})
	}
}

// benchBurst is the marker flood's shape: about 1e3 events pending in runs
// of k for one time each, and a cycle that pops the k smallest and pushes k
// more for one later time, as packets of one size leaving together land
// their hop timers together. b.N counts events, so ns/op compares with
// benchPushPop's, and k = 1 is its distinct-time twin.
func benchBurst(b *testing.B, q benchQueue, k int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	times := make([]Time, 4096)
	for i := range times {
		times[i] = Time(rng.Intn(1 << 20))
	}
	var seq uint64
	for i := 0; i < 1e3; i += k {
		for j := 0; j < k; j++ {
			seq++
			q.push(event{at: times[i%len(times)], seq: seq})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += k {
		var e event
		for j := 0; j < k; j++ {
			e = q.pop()
		}
		at := e.at + 1 + times[i%len(times)]%1024
		for j := 0; j < k; j++ {
			seq++
			q.push(event{at: at, seq: seq})
		}
	}
}

func BenchmarkEventQueuePushPop1e3(b *testing.B) { benchPushPop(b, new(eventQueue), 1e3) }
func BenchmarkEventQueuePushPop1e5(b *testing.B) { benchPushPop(b, new(eventQueue), 1e5) }
func BenchmarkEventQueueBurst1(b *testing.B)     { benchBurst(b, new(eventQueue), 1) }
func BenchmarkEventQueueBurst16(b *testing.B)    { benchBurst(b, new(eventQueue), 16) }

// The container/heap reference, for the before/after delta.
func BenchmarkRefQueuePushPop1e3(b *testing.B) { benchPushPop(b, new(refQueue), 1e3) }
func BenchmarkRefQueuePushPop1e5(b *testing.B) { benchPushPop(b, new(refQueue), 1e5) }
func BenchmarkRefQueueBurst1(b *testing.B)     { benchBurst(b, new(refQueue), 1) }
func BenchmarkRefQueueBurst16(b *testing.B)    { benchBurst(b, new(refQueue), 16) }

// BenchmarkEngineTimerCascade measures the full engine cycle — schedule
// through Run's pop-and-dispatch — with the reused-callback form the timer
// wheel and protocol daemons use.
func BenchmarkEngineTimerCascade(b *testing.B) {
	e := New()
	var fire func()
	n := 0
	fire = func() {
		n++
		if n < b.N {
			e.After(1, fire)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(1, fire)
	if err := e.Run(); err != nil {
		b.Fatalf("Run: %v", err)
	}
}

// BenchmarkEngineSleepingProc measures the proc-transfer path: one sleeping
// process is two events per cycle (Sleep's timer, the next park handshake)
// plus two goroutine handoffs — the simulator's dominant cost when many
// processes idle on timers.
func BenchmarkEngineSleepingProc(b *testing.B) {
	e := New()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatalf("Run: %v", err)
	}
	b.StopTimer()
	e.Shutdown()
}
