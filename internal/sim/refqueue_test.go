package sim

import "container/heap"

// refQueue is the engine's original container/heap event queue, retired from
// the build by eventQueue and kept in this test file as the differential-
// testing reference: TestEventQueueDifferential and FuzzEventQueueOrder drive
// both implementations with identical schedules and require identical pop
// sequences. It must not change independently of the (at, seq) ordering
// contract documented on eventQueue.
//
// It is also the record of why it was replaced: heap.Interface's Push/Pop
// traffic in `any`, boxing the three-word event struct on every schedule and
// every pop, which made the event queue the simulator's single largest
// allocation site (~46% of heap objects on a pinned 14-cell matrix).
type refQueue struct {
	h refHeap
}

type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func (q *refQueue) len() int     { return len(q.h) }
func (q *refQueue) peek() event  { return q.h[0] }
func (q *refQueue) push(e event) { heap.Push(&q.h, e) }
func (q *refQueue) pop() event   { return heap.Pop(&q.h).(event) }
