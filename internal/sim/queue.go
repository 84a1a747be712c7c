package sim

// eventQueue is the engine's pending-event queue: a monomorphic 4-ary min-heap
// over events ordered by (at, seq). The (at, seq) pair is a strict total order
// — seq is unique per engine — so the heap's pop sequence is fully determined
// by the set of pushed events, and same-time events drain in scheduling (FIFO)
// order. That total order is the determinism contract every layer above relies
// on; refQueue (refqueue_test.go) is the retired container/heap implementation
// the tests use as the differential reference for exactly this property.
// Events scheduled for the instant they are pushed at never enter the heap:
// Engine.schedule keeps them in a FIFO lane that Run interleaves with the heap
// in the same total order (the argument is on schedule).
//
// Compared to container/heap the queue is allocation-free in steady state
// (push appends to a reused slice, no interface boxing of the multi-word
// event struct) and sifts by shifting a hole instead of swapping, so each
// level costs one copy instead of three. The 4-ary layout halves the tree
// depth of the binary heap; the wider sibling scan stays in one cache line
// because events are contiguous in the slice.
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

// peek returns the minimum event without removing it. Caller must ensure the
// queue is non-empty.
func (q *eventQueue) peek() event { return q.ev[0] }

// before is the queue's strict total order: earlier virtual time first,
// scheduling order (seq) breaking ties.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts e, sifting the hole up from the new tail slot.
func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	ev := q.ev
	i := len(ev) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(ev[p]) {
			break
		}
		ev[i] = ev[p]
		i = p
	}
	ev[i] = e
}

// pop removes and returns the minimum event, sifting the former tail element
// down from the root. The vacated tail slot is zeroed so the event's closure
// (and the process it references) are not pinned by the queue's spare
// capacity.
func (q *eventQueue) pop() event {
	ev := q.ev
	top := ev[0]
	n := len(ev) - 1
	tail := ev[n]
	ev[n] = event{}
	ev = ev[:n]
	q.ev = ev
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			// Select the minimum of the up-to-four children.
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if ev[j].before(ev[m]) {
					m = j
				}
			}
			if !ev[m].before(tail) {
				break
			}
			ev[i] = ev[m]
			i = m
		}
		ev[i] = tail
	}
	return top
}
