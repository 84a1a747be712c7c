package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// queue_test.go — differential testing of the engine's event queue (a 4-ary
// heap of same-time runs) against refQueue, the retired container/heap
// implementation. Both are driven with identical schedules and must produce
// identical pop sequences: (at, seq) is a strict total order, so there is
// exactly one correct drain order and any divergence is a bug in one of them.

// diffSchedule drives both queues through the same randomized push/pop/peek
// schedule and fails on the first divergence. Times are drawn from a small
// range so same-timestamp bursts — the case where FIFO tie-breaking by seq
// carries all the ordering — are common. A bursty schedule makes a push the
// start of a run of 1–16 pushes at one time, with pops and peeks interleaved,
// and aims one run in four at the time of the last pop — a time the queue has
// drained or is draining — so the queue's stage grows while its head is
// popped, runs for one time are left in the heap with later runs for it
// staged behind them, and drained overflow slices are reused.
func diffSchedule(t *testing.T, rng *rand.Rand, ops, timeRange int, bursty bool) {
	t.Helper()
	var q eventQueue
	var ref refQueue
	var seq uint64
	var runAt, drained Time
	runLeft := 0
	push := func(at Time) {
		seq++
		e := event{at: at, seq: seq}
		q.push(e)
		ref.push(e)
	}
	for i := 0; i < ops; i++ {
		if q.len() != ref.len() {
			t.Fatalf("op %d: len mismatch: queue %d, reference %d", i, q.len(), ref.len())
		}
		switch r := rng.Intn(10); {
		case runLeft > 0 && r < 7: // the run goes on
			runLeft--
			push(runAt)
		case r < 5 || q.len() == 0: // push
			at := Time(rng.Intn(timeRange))
			if bursty {
				if rng.Intn(4) == 0 {
					at = drained
				}
				runAt, runLeft = at, rng.Intn(16)
			}
			push(at)
		case r < 9: // pop
			got, want := q.pop(), ref.pop()
			sameEvent(t, "pop", i, got, want)
			drained = got.at
		default: // peek
			want := ref.peek()
			sameEvent(t, "peek", i, q.peek(), want)
			if at := q.nextAt(); at != want.at {
				t.Fatalf("op %d: nextAt %d, reference's minimum at %d", i, at, want.at)
			}
		}
	}
	// Drain both and compare the tails.
	for q.len() > 0 {
		sameEvent(t, "drain: pop", ops, q.pop(), ref.pop())
	}
	if ref.len() != 0 {
		t.Fatalf("drain: reference still holds %d events", ref.len())
	}
}

// peek returns the minimum event without removing it, as nextAt and pop see
// it. Caller must ensure the queue is non-empty.
func (q *eventQueue) peek() event {
	if q.stageFirst() {
		return untagged(q.stage)
	}
	return untagged(q.heap[0])
}

// sameEvent fails the test unless the queue's event got is the reference's
// want.
func sameEvent(t *testing.T, what string, op int, got, want event) {
	t.Helper()
	if got.at != want.at || got.seq != want.seq {
		t.Fatalf("op %d: %s mismatch: queue (at=%d seq=%d), reference (at=%d seq=%d)",
			op, what, got.at, got.seq, want.at, want.seq)
	}
}

// TestEventQueueDifferential cross-checks the queue against the
// container/heap reference over many seeds and schedule shapes, including
// degenerate all-same-timestamp schedules where only seq orders the drain,
// and bursty ones that exercise its runs.
func TestEventQueueDifferential(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		diffSchedule(t, rng, 2000, 1+rng.Intn(100), false)
	}
	// All events at one instant: pure FIFO by seq.
	diffSchedule(t, rand.New(rand.NewSource(99)), 2000, 1, false)
	for seed := int64(100); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		diffSchedule(t, rng, 2000, 1+rng.Intn(20), true)
	}
}

// TestEventQueueTagsExhausted: with every overflow tag taken, a burst goes on
// as runs of one and still drains in (at, seq) order.
func TestEventQueueTagsExhausted(t *testing.T) {
	var q eventQueue
	var ref refQueue
	q.spill = make([]spill, tagMask-1) // one tag left
	var seq uint64
	for _, at := range []Time{5, 5, 5, 3, 3, 3, 5, 5} {
		seq++
		e := event{at: at, seq: seq}
		q.push(e)
		ref.push(e)
	}
	if len(q.spill) != tagMask {
		t.Fatalf("%d overflow slices, want %d", len(q.spill), tagMask)
	}
	for i := 0; q.len() > 0; i++ {
		sameEvent(t, "pop", i, q.pop(), ref.pop())
	}
}

// TestEventQueueSortOrder verifies the drain order against an independent
// oracle — sort.Slice over the same events — rather than the reference heap,
// so a shared misconception between the two heaps cannot hide.
func TestEventQueueSortOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	var all []event
	for i := 0; i < 3000; i++ {
		e := event{at: Time(rng.Intn(50)), seq: uint64(i + 1)}
		q.push(e)
		all = append(all, e)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].before(all[j]) })
	for i, want := range all {
		got := q.pop()
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("pop %d: got (at=%d seq=%d), want (at=%d seq=%d)",
				i, got.at, got.seq, want.at, want.seq)
		}
	}
	if q.len() != 0 {
		t.Fatalf("queue still holds %d events after full drain", q.len())
	}
}

// FuzzEventQueueOrder feeds arbitrary byte strings as push/pop/peek schedules
// to both queue implementations and requires identical behaviour. Each input
// byte is one operation: the low bit chooses push vs pop/peek and the high
// bits give the event time, so the fuzzer controls the exact interleaving and
// can manufacture same-timestamp bursts — the queue's runs — at will.
func FuzzEventQueueOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 4, 1, 1, 1})
	f.Add([]byte{8, 8, 8, 8, 1, 1, 1, 1}) // one instant, FIFO drain
	f.Add([]byte{250, 4, 128, 64, 1, 3, 1, 1})
	// A staged run grows while its head is popped.
	f.Add([]byte{8, 8, 8, 1, 8, 8, 1, 3, 8, 1, 1, 1, 1, 1})
	// Runs for one time alternate with runs for another: each time's runs
	// hold disjoint seq ranges, and the ones that left the stage never grow.
	f.Add([]byte{4, 6, 4, 4, 6, 4, 4, 4, 6, 4, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	// Two runs for t=2 in the heap, the older at the root once t=1 drains:
	// a push for t=2 appended to the root would overtake the younger run.
	f.Add([]byte{2, 4, 6, 4, 6, 1, 4, 1, 1, 1, 1, 1, 1})
	// Runs of three and more at one time, refilled past the overflow's first
	// slot, then pushes at a time already drained.
	f.Add([]byte{6, 6, 6, 6, 4, 4, 4, 4, 1, 1, 1, 6, 6, 6, 1, 1, 3, 1, 1, 1})
	// A run longer than the overflow's first allocation, drained and reused.
	f.Add([]byte{10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
		2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 10, 10, 10, 2, 2, 1, 1, 1, 1, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		var q eventQueue
		var ref refQueue
		var seq uint64
		for i, b := range data {
			if b&1 == 0 || q.len() == 0 { // push
				seq++
				e := event{at: Time(b >> 1), seq: seq}
				q.push(e)
				ref.push(e)
			} else if b&2 == 0 { // pop
				sameEvent(t, "pop", i, q.pop(), ref.pop())
			} else { // peek
				sameEvent(t, "peek", i, q.peek(), ref.peek())
			}
			if q.len() != ref.len() {
				t.Fatalf("op %d: len mismatch: queue %d, reference %d", i, q.len(), ref.len())
			}
		}
		var last event
		for n := 0; q.len() > 0; n++ {
			got := q.pop()
			sameEvent(t, "drain: pop", len(data)+n, got, ref.pop())
			if n > 0 && got.before(last) {
				t.Fatalf("drain: order violation: (at=%d seq=%d) popped after (at=%d seq=%d)",
					got.at, got.seq, last.at, last.seq)
			}
			last = got
		}
	})
}
