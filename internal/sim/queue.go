package sim

// eventQueue is the engine's queue of events due after the instant they were
// pushed at, drained in (at, seq) order. The (at, seq) pair is a strict total
// order — seq is unique per engine — so the pop sequence is fully determined
// by the set of pushed events, and same-time events drain in scheduling (FIFO)
// order. That total order is the determinism contract every layer above relies
// on; refQueue (refqueue_test.go) is the retired container/heap implementation
// the tests use as the differential reference for exactly this property.
// Events scheduled for the instant they are pushed at never enter the queue:
// Engine.schedule keeps them in a FIFO lane that Run interleaves with the
// queue in the same total order (the argument is on schedule).
//
// A heap entry is a run: events for one time, pushed back to back. A marker
// flood sends many packets of one size at one instant, so their hop timers
// land together, and a run lets such a burst cost one heap entry instead of a
// sift per event. The run's earliest pending event, its head, is held inline —
// a run of one is just an event — and the rest wait in an overflow slice, in
// push order. The newest run, the stage, stays outside the heap and grows
// while pushes keep its time; a push for any other time moves it into the heap
// and stages a run of its own. pop and nextAt take the smaller of the stage's
// head and the heap's root, and a run with overflow left refills its head in
// place, without a sift.
//
// Why the order is still exactly (at, seq): push requires seq to exceed every
// seq pushed before (Engine.schedule numbers events as it pushes them), and
// only the stage ever grows, so two runs for one time hold disjoint seq
// ranges, the later-created one wholly above. Ordering runs by their heads is
// therefore ordering every pending event: when a run's head is the minimum,
// its next event still sorts before every other run's head, so the refilled
// root keeps the heap ordered and the stage-or-root choice stays exact.
//
// A head names its run's overflow in the low tagBits of its seq, which holds
// the event's seq shifted up by as many bits: the tag is 1 + the overflow's
// index in spill, or 0 for a run of one. Seqs are distinct, so the shifted
// ones keep their order whatever the tags, and a head stays the 32 bytes of
// an event — a 40-byte head-plus-index entry cost the heap's distinct-time
// cycle 10–15 %, and a parallel slice of indices a second cache miss per
// level. The shift leaves room for 2^44 pushes per engine; with every tag in
// use, a burst goes on as runs of one.
//
// The heap is a monomorphic 4-ary min-heap over a reused slice: no interface
// boxing, sifts shift a hole instead of swapping (one copy per level, not
// three), and the four siblings a sift-down scans sit side by side. Overflow
// slices are recycled once drained, and every vacated slot — heap tail,
// overflow, stage — is zeroed, so spare capacity never pins an event's
// closure or process.
type eventQueue struct {
	heap   []event // the runs' heads, tagged
	stage  event   // the newest run's head, tagged, while staged
	staged bool
	n      int      // pending events: the heap's runs and the stage, overflow included
	spill  []spill  // overflow slices, in use or drained
	free   []uint64 // the tags of the drained ones
}

const (
	tagBits = 20
	tagMask = 1<<tagBits - 1
	maxSeq  = 1<<(64-tagBits) - 1
)

// spill holds a run's events after its head, untagged, in push order.
type spill struct {
	ev   []event
	next int // ev[next:] are pending
}

func (q *eventQueue) len() int { return q.n }

// before is the queue's strict total order: earlier virtual time first,
// scheduling order (seq) breaking ties.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// untagged returns head as it was pushed.
func untagged(head event) event {
	head.seq >>= tagBits
	return head
}

// stageFirst reports whether the stage's head, not the heap's root, is the
// minimum pending event. Caller must ensure the queue is non-empty.
func (q *eventQueue) stageFirst() bool {
	return q.staged && (len(q.heap) == 0 || q.stage.before(q.heap[0]))
}

// nextAt returns the time of the minimum event. Caller must ensure the queue
// is non-empty.
func (q *eventQueue) nextAt() Time {
	if q.stageFirst() {
		return q.stage.at
	}
	return q.heap[0].at
}

// push inserts e, whose seq must exceed that of every event pushed before it
// and be at most maxSeq. An event for the stage's time joins the stage; any
// other stages a new run, moving the old one into the heap. The test for an
// empty stage is all that push inlines into Engine.schedule.
func (q *eventQueue) push(e event) {
	q.n++
	if q.staged {
		q.pushStaged(e)
		return
	}
	e.seq <<= tagBits
	q.stage, q.staged = e, true
}

// pushStaged is push while a run is staged.
func (q *eventQueue) pushStaged(e event) {
	if e.at == q.stage.at {
		// Append e to the stage's overflow, taking a drained slice for the
		// stage's first.
		tag := q.stage.seq & tagMask
		if tag == 0 {
			if n := len(q.free); n > 0 {
				tag = q.free[n-1]
				q.free = q.free[:n-1]
			} else if len(q.spill) < tagMask {
				q.spill = append(q.spill, spill{})
				tag = uint64(len(q.spill))
			}
			q.stage.seq |= tag
		}
		if tag != 0 {
			s := &q.spill[tag-1]
			s.ev = append(s.ev, e)
			return
		}
	}
	q.heapPush(q.stage)
	e.seq <<= tagBits
	q.stage = e
}

// pop removes and returns the minimum event. Caller must ensure the queue is
// non-empty.
func (q *eventQueue) pop() (ev event) {
	q.n--
	if q.stageFirst() {
		ev = untagged(q.stage)
		if q.stage.seq&tagMask != 0 {
			q.refill(&q.stage)
		} else {
			q.stage, q.staged = event{}, false
		}
		return ev
	}
	h := q.heap
	ev = untagged(h[0])
	if h[0].seq&tagMask != 0 {
		q.refill(&h[0])
		return ev
	}
	// The root was a run of one: move the tail down from the root.
	n := len(h) - 1
	tail := h[n]
	h[n] = event{}
	h = h[:n]
	q.heap = h
	if n == 0 {
		return ev
	}
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
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(tail) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = tail
	return ev
}

// refill replaces *head with the next event of its overflow, tagged as long
// as the overflow has more, and returns the overflow slice to the free list
// once it has drained.
func (q *eventQueue) refill(head *event) {
	tag := head.seq & tagMask
	s := &q.spill[tag-1]
	next := s.ev[s.next]
	s.ev[s.next] = event{}
	if s.next++; s.next == len(s.ev) {
		s.ev, s.next = s.ev[:0], 0
		q.free = append(q.free, tag)
		tag = 0
	}
	next.seq = next.seq<<tagBits | tag
	*head = next
}

// heapPush inserts the tagged head e, sifting the hole up from the new tail
// slot.
func (q *eventQueue) heapPush(e event) {
	q.heap = append(q.heap, e)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}
