package sim

import "slices"

// Gate is a one-shot synchronization point. Processes Wait until some event
// or process calls Open; waits after Open return immediately. The zero value
// is unusable; create gates with NewGate.
type Gate struct {
	eng     *Engine
	open    bool
	waiters []*Proc
}

// NewGate returns a closed gate on engine e.
func NewGate(e *Engine) *Gate { return &Gate{eng: e} }

// Opened reports whether Open has been called.
func (g *Gate) Opened() bool { return g.open }

// Wait parks p until the gate opens. Returns immediately if already open.
func (g *Gate) Wait(p *Proc) {
	if g.open {
		return
	}
	g.waiters = append(g.waiters, p)
	p.park()
}

// Open opens the gate, waking all waiters at the current virtual time. It
// may be called from engine context or from a process.
func (g *Gate) Open() {
	if g.open {
		return
	}
	g.open = true
	for _, w := range g.waiters {
		w.wake()
	}
	g.waiters = nil
}

// Resource is a FIFO-granted counted resource (capacity 1 gives mutual
// exclusion). Processes that park inside Acquire must not be killed; see
// Proc.Kill.
type Resource struct {
	eng   *Engine
	cap   int
	inUse int
	queue []*Proc

	// Busy accounting for utilization statistics.
	busySince Time
	busyTotal Duration
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(e *Engine, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{eng: e, cap: capacity}
}

// Acquire obtains one unit of the resource, parking p in FIFO order if none
// is free.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap {
		r.grant()
		return
	}
	r.queue = append(r.queue, p)
	p.park()
	// Woken by Release, which already performed the grant accounting.
}

func (r *Resource) grant() {
	if r.inUse == 0 {
		r.busySince = r.eng.now
	}
	r.inUse++
}

// Release returns one unit and hands it to the head of the queue, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource")
	}
	r.inUse--
	if r.inUse == 0 {
		r.busyTotal += r.eng.now.Sub(r.busySince)
	}
	for len(r.queue) > 0 {
		w := r.queue[0]
		r.queue = r.queue[1:]
		if w.done || w.killed {
			continue
		}
		r.grant()
		w.wake()
		return
	}
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return len(r.queue) }

// BusyTime returns the total virtual time during which at least one unit was
// held, up to the last transition to idle.
func (r *Resource) BusyTime() Duration { return r.busyTotal }

// Mailbox is an unbounded FIFO queue of items with at most one waiting
// consumer, supporting selective receive: the consumer scans queued items
// and removes an arbitrary match. Producers never block.
type Mailbox[T any] struct {
	eng    *Engine
	items  []T
	waiter *Proc
}

// NewMailbox returns an empty mailbox on engine e.
func NewMailbox[T any](e *Engine) *Mailbox[T] { return &Mailbox[T]{eng: e} }

// Put appends v and wakes the waiting consumer, if any. It may be called
// from engine context or from any process.
func (m *Mailbox[T]) Put(v T) {
	m.items = append(m.items, v)
	if w := m.waiter; w != nil {
		m.waiter = nil
		w.wake()
	}
}

// PutFront queues vs, in order, ahead of every item already queued, and wakes
// the waiting consumer, if any. A restore uses it to hand back work that was
// in flight at a capture ahead of anything that arrived since the restart.
func (m *Mailbox[T]) PutFront(vs []T) {
	if len(vs) == 0 {
		return
	}
	m.items = slices.Insert(m.items, 0, vs...)
	if w := m.waiter; w != nil {
		m.waiter = nil
		w.wake()
	}
}

// Len returns the number of queued items.
func (m *Mailbox[T]) Len() int { return len(m.items) }

// TakeMatch removes and returns the first item satisfying match.
func (m *Mailbox[T]) TakeMatch(match func(T) bool) (T, bool) {
	for i, v := range m.items {
		if match(v) {
			m.items = append(m.items[:i], m.items[i+1:]...)
			return v, true
		}
	}
	var zero T
	return zero, false
}

// AwaitPut parks p until the next Put. The caller must re-scan the queue on
// return: the wakeup only signals that something arrived. At most one
// process may wait on a mailbox at a time.
func (m *Mailbox[T]) AwaitPut(p *Proc) {
	if m.waiter != nil && (m.waiter.done || m.waiter.killed) {
		m.waiter = nil // a killed process left a dangling registration
	}
	if m.waiter != nil {
		panic("sim: mailbox already has a waiter")
	}
	m.waiter = p
	p.park()
}

// Get removes and returns the first item satisfying match, parking p until
// one arrives.
func (m *Mailbox[T]) Get(p *Proc, match func(T) bool) T {
	for {
		if v, ok := m.TakeMatch(match); ok {
			return v
		}
		m.AwaitPut(p)
	}
}

// GetAny removes and returns the oldest item, parking p until one arrives.
func (m *Mailbox[T]) GetAny(p *Proc) T {
	return m.Get(p, func(T) bool { return true })
}

// ForEach visits the queued items in FIFO order without copying the queue
// (coordinated checkpointing captures in-transit messages as channel state
// through it). fn must not Put, take, or park.
func (m *Mailbox[T]) ForEach(fn func(T)) {
	for _, v := range m.items {
		fn(v)
	}
}
