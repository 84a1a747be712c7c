package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// event is a scheduled occurrence. Events with equal timestamps fire in
// scheduling order (seq), which keeps the simulation deterministic. The two
// payload forms exist so the overwhelmingly common event — "resume process
// proc" (every Sleep, wake and spawn activation) — is scheduled without
// allocating a closure: proc non-nil means transfer control to that process,
// otherwise fn is invoked as a plain callback.
type event struct {
	at   Time
	seq  uint64
	proc *Proc
	fn   func()
}

// Engine is a discrete-event simulation engine. It is not safe for use from
// multiple goroutines except through the coroutine switch managed by Proc; see
// the package comment.
type Engine struct {
	now      Time
	seq      uint64
	events   eventQueue // events scheduled for a later instant than they were pushed at
	lane     []event    // events scheduled for the instant they were pushed at, in push order
	laneHead int        // lane[laneHead:] are pending
	procs    map[int]*Proc
	nextID   int
	stopReq  bool
	failure  error

	pops     uint64 // events executed by Run
	maxDepth int    // high-water mark of the pending-event queue
}

// EngineStats are host-side counters of the event loop, maintained
// unconditionally: three integer updates per event are cheap enough to keep
// always-on, they never read the host clock, and they cannot perturb the
// virtual schedule — which is what lets the perf layer sample them without a
// determinism caveat. Pushes is e.seq (every scheduled event), Pops the
// events Run actually executed (Stop discards the rest), MaxQueueDepth the
// high-water mark of pending events (heap plus current-instant lane), and
// ProcsSpawned the number of processes ever created on the engine.
type EngineStats struct {
	Pushes        uint64
	Pops          uint64
	MaxQueueDepth int
	ProcsSpawned  int
}

// Stats returns the engine's event-loop counters. They keep accumulating
// until the engine is discarded and remain readable after Shutdown.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Pushes:        e.seq,
		Pops:          e.pops,
		MaxQueueDepth: e.maxDepth,
		ProcsSpawned:  e.nextID,
	}
}

// New returns an empty engine at virtual time zero.
func New() *Engine {
	return &Engine{procs: make(map[int]*Proc)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run in engine context at virtual time at. Scheduling in
// the past is an error and panics: the simulation cannot rewind.
func (e *Engine) At(at Time, fn func()) {
	e.schedule(event{at: at, fn: fn})
}

// atProc schedules a control transfer to p at virtual time at. It is the
// allocation-free twin of At(at, func() { e.transfer(p) }), used by the
// process primitives (Sleep, wake, spawn activation) that account for nearly
// every event in a simulation.
func (e *Engine) atProc(at Time, p *Proc) {
	e.schedule(event{at: at, proc: p})
}

// schedule assigns the event its sequence number and enqueues it. Scheduling
// in the past panics: the simulation cannot rewind.
//
// An event for the current instant — an After(0) activation, a wake, a spawn
// — skips the heap for the lane, a FIFO, and Run still pops in strict
// (at, seq) order. Time advances only once the lane is empty, so the lane
// holds nothing but events with at == now that were pushed at this instant,
// in seq order; a heap event with at == now was pushed at an earlier instant
// and so carries a smaller seq than any of them. Heap events of the current
// instant first, then the lane, then the next instant is therefore exactly
// the order one heap would give, event for event, without the sift that the
// same-instant pushes — nearly half of a marker flood's — would pay.
func (e *Engine) schedule(ev event) {
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", ev.at, e.now))
	}
	if e.seq == maxSeq {
		panic("sim: more than 2^44 events scheduled on one engine")
	}
	e.seq++
	ev.seq = e.seq
	if ev.at == e.now {
		e.lane = append(e.lane, ev)
	} else {
		e.events.push(ev)
	}
	if depth := e.events.len() + len(e.lane) - e.laneHead; depth > e.maxDepth {
		e.maxDepth = depth
	}
}

// queued reports whether the queue's minimum, not the lane's head, is the
// next pending event, and that event's time if so; see schedule for why the
// lane yields to queue events of the current instant and to nothing else.
func (e *Engine) queued() (at Time, ok bool) {
	if e.events.len() == 0 {
		return 0, false
	}
	at = e.events.nextAt()
	return at, at == e.now || e.laneHead == len(e.lane)
}

// popLane removes and returns the lane's first pending event.
func (e *Engine) popLane() (ev event) {
	// Zero the vacated slot, as eventQueue.pop does, so the lane's spare
	// capacity pins no closure or process; rewind once it drains, so the
	// backing array is reused instant after instant.
	ev, e.lane[e.laneHead] = e.lane[e.laneHead], event{}
	if e.laneHead++; e.laneHead == len(e.lane) {
		e.lane, e.laneHead = e.lane[:0], 0
	}
	return ev
}

// After schedules fn to run in engine context d from now.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now.Add(d), fn)
}

// fail records the first fatal error (e.g. a panicking process) and stops
// the run.
func (e *Engine) fail(err error) {
	if e.failure == nil {
		e.failure = err
	}
	e.stopReq = true
}

// DeadlockError is returned by Run when events are exhausted while processes
// are still blocked.
type DeadlockError struct {
	At      Time
	Blocked []string // names of blocked processes, sorted
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d blocked process(es): %v", d.At, len(d.Blocked), d.Blocked)
}

// ErrHorizon is returned by RunUntil when events remain past its horizon.
var ErrHorizon = errors.New("sim: events remain past the horizon")

// Run executes events until none remain, Stop is called, or a process
// panics. It returns a *DeadlockError if processes remain blocked when the
// event queue drains, the process's panic as an error if one panicked, and
// nil on a clean completion (all processes finished).
func (e *Engine) Run() error { return e.RunUntil(math.MaxInt64) }

// RunUntil is Run that executes no event due after horizon: when the next
// event is, RunUntil leaves it and every later one pending and returns
// ErrHorizon — a virtual deadline for a simulation that might never end. The
// horizon may not lie in the past.
func (e *Engine) RunUntil(horizon Time) error {
	if horizon < e.now {
		panic(fmt.Sprintf("sim: horizon %v before now %v", horizon, e.now))
	}
	for !e.stopReq {
		var ev event
		if at, ok := e.queued(); ok {
			// Due after the horizon only when the lane is empty. The event is
			// left where it is: the queue takes no push of an old seq, so it
			// could not be popped and put back.
			if at > horizon {
				return ErrHorizon
			}
			ev = e.events.pop()
		} else if e.laneHead < len(e.lane) {
			ev = e.popLane()
		} else {
			break
		}
		e.pops++
		e.now = ev.at
		if ev.proc != nil {
			e.transfer(ev.proc)
		} else {
			ev.fn()
		}
	}
	if e.failure != nil {
		return e.failure
	}
	if e.stopReq {
		return nil
	}
	var names []string
	for _, p := range e.procs {
		if !p.daemon {
			names = append(names, p.name)
		}
	}
	if len(names) > 0 {
		sort.Strings(names)
		return &DeadlockError{At: e.now, Blocked: names}
	}
	return nil
}

// Shutdown unwinds every remaining process goroutine: daemons parked forever
// (storage servers, checkpointer loops) and processes that never got their
// first activation. Without it each finished simulation leaks one blocked
// goroutine per surviving process, which adds up when a benchmark matrix runs
// thousands of simulations in one Go process. Call it only after Run has
// returned; the engine must not be used again. Shutdown is idempotent.
func (e *Engine) Shutdown() {
	procs := make([]*Proc, 0, len(e.procs))
	for _, p := range e.procs {
		procs = append(procs, p)
	}
	for _, p := range procs {
		if p.done {
			continue
		}
		// Resume the coroutine with the killed flag set: a parked process
		// unwinds via killedPanic, a never-started one returns before running
		// its body. Either way next returns once its goroutine has exited.
		p.killed = true
		p.next()
	}
}
