package sim

import (
	"math/rand"
	"testing"
)

// order_test.go — the engine's ordering contract, checked through Run: events
// execute in strictly increasing (at, push index) order, whichever of the
// heap, its stage of same-time runs, and the current-instant lane held them.
// Generated programs of callbacks and processes schedule into all of them at
// once — After(0), After(d), k × After(d) with one d, At(now), Sleep(0),
// Sleep(d), Yield, wake, Kill, Spawn, Stop — and every
// activation reports the event that caused it. On a drained run (Pops ==
// Pushes) strictly increasing order is the same thing as "always pop the
// minimum pending event", the heap-only engine's behaviour.

// TestLaneYieldsToEarlierPushes is the contract's smallest instance: an event
// pushed for the current instant runs after the events that were already
// pending for it, and both count toward the queue depth.
func TestLaneYieldsToEarlierPushes(t *testing.T) {
	e := New()
	order := ""
	mark := func(s string) func() { return func() { order += s } }
	e.At(5, func() {
		order += "a"
		e.After(0, mark("c"))
		e.At(e.Now(), mark("d"))
		e.After(0, mark("e"))
	})
	e.At(5, mark("b"))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if order != "abcde" {
		t.Fatalf("order %q, want \"abcde\": same-instant pushes must queue behind events already pending for the instant", order)
	}
	if st := e.Stats(); st.MaxQueueDepth != 4 || st.Pushes != 5 || st.Pops != 5 {
		t.Fatalf("stats %+v, want depth 4 (b on the heap plus c, d, e in the lane), 5 pushes, 5 pops", st)
	}
}

// Program bytes: the low nibble picks the operation (values past opStop alias
// the scheduling ops, which keeps generated programs from dying out), the
// high nibble is its argument.
const (
	opAfter0 = iota
	opAfterD
	opAtNow
	opSleep0 // opSleep0..opExit end the activation; a callback just returns
	opSleepD
	opYield
	opPark
	opExit
	opSpawn
	opWake
	opKill
	opBurst
	opStop
	numOrderOps
)

const maxOrderProcs = 12

// orderProc is what the harness knows about one generated process: which
// event will resume it next.
type orderProc struct {
	p        *Proc
	at       Time   // the resume event's time
	idx      uint64 // its push index; 0 while parked with no wake-up pending
	started  bool
	selfKill bool // killed itself: that wake-up precedes anything it schedules afterwards
}

// orderRun interprets one program. All activations share the script cursor,
// so the program is fixed by the bytes and the pop order alone.
type orderRun struct {
	t      testing.TB
	e      *Engine
	script []byte
	pc     int

	lastAt  Time
	lastIdx uint64
	seen    int // activations observed
	procs   []*orderProc
	parked  []*orderProc
	stopped bool // Stop was called, or a check failed
	quiet   bool // Shutdown is unwinding processes; no event is executing

	sawMixed, sawKillUnwind, sawRun bool
}

// observe checks one activation against the contract: it happens at the time
// its event was scheduled for, after every event that sorts before it.
func (r *orderRun) observe(at Time, idx uint64) {
	if r.quiet {
		return
	}
	e := r.e
	if e.now != at || at < r.lastAt || at == r.lastAt && idx <= r.lastIdx {
		r.t.Errorf("event (at=%d, push %d) executed at t=%d after (at=%d, push %d)", at, idx, e.now, r.lastAt, r.lastIdx)
		r.stopped = true
		e.Stop()
	}
	r.lastAt, r.lastIdx = at, idx
	r.seen++
	// The state in which heap-first and lane-first differ.
	if e.laneHead < len(e.lane) && e.events.len() > 0 && e.events.peek().at == e.now {
		r.sawMixed = true
	}
	// A run that left the stage with overflow, as the lane fills.
	if e.laneHead < len(e.lane) && len(e.events.heap) > 0 && e.events.heap[0].seq&tagMask != 0 {
		r.sawRun = true
	}
}

// callback returns the callback for the event about to be pushed for at.
func (r *orderRun) callback(at Time) func() {
	idx := r.e.seq + 1
	return func() {
		r.observe(at, idx)
		r.act(nil)
	}
}

// act runs the script's operations on behalf of the current activation — self
// is nil in a callback — up to one that ends it, which it returns.
func (r *orderRun) act(self *orderProc) (op, arg int) {
	e := r.e
	for r.pc < len(r.script) && !r.stopped {
		b := int(r.script[r.pc])
		r.pc++
		op, arg = (b&15)%numOrderOps, b>>4
		switch op {
		case opAfter0:
			e.After(0, r.callback(e.now))
		case opAfterD:
			d := Duration(1 + arg%3)
			e.After(d, r.callback(e.now.Add(d)))
		case opAtNow:
			e.At(e.now, r.callback(e.now))
		case opBurst:
			d := Duration(1 + arg>>2%3)
			for k := 2 + arg%4; k > 0; k-- {
				e.After(d, r.callback(e.now.Add(d)))
			}
		case opSpawn:
			r.spawn()
		case opWake:
			r.wake()
		case opKill:
			r.kill(self, arg)
		case opStop:
			if arg == 15 {
				r.stopped = true
				e.Stop()
			}
		default:
			return op, arg
		}
	}
	return opExit, 0
}

func (r *orderRun) spawn() {
	if len(r.procs) == maxOrderProcs {
		return
	}
	st := &orderProc{at: r.e.now, idx: r.e.seq + 1}
	r.procs = append(r.procs, st)
	st.p = r.e.Spawn("p", func(*Proc) { r.body(st) }).SetDaemon(true)
}

// body is a generated process: act, block the way the script says, repeat.
func (r *orderRun) body(st *orderProc) {
	st.started = true
	exited := false
	defer func() {
		if !exited { // unwinding from a park: the resume event was a kill's wake-up
			r.sawKillUnwind = r.sawKillUnwind || !r.quiet
			r.observe(st.at, st.idx)
		}
	}()
	for {
		r.observe(st.at, st.idx)
		op, arg := r.act(st)
		var d Duration
		switch op {
		case opExit:
			exited = true
			return
		case opPark:
			if !st.selfKill {
				st.idx = 0
				r.parked = append(r.parked, st)
			}
			st.p.park()
			continue
		case opSleepD:
			d = Duration(1 + arg%3)
		}
		if !st.selfKill {
			st.at, st.idx = r.e.now.Add(d), r.e.seq+1
		}
		if op == opYield {
			st.p.Yield()
		} else {
			st.p.Sleep(d)
		}
	}
}

// wake resumes the longest-parked process that no kill has woken already.
func (r *orderRun) wake() {
	for len(r.parked) > 0 {
		st := r.parked[0]
		r.parked = r.parked[1:]
		if !st.p.killed {
			st.at, st.idx = r.e.now, r.e.seq+1
			st.p.wake()
			return
		}
	}
}

// kill kills a process and works out which event its unwinding will be
// observed at: a kill's wake-up is for now, so it resumes the victim unless
// the victim already has a wake-up pending for this very instant (pushed
// earlier, so ahead of the kill's).
func (r *orderRun) kill(self *orderProc, arg int) {
	if len(r.procs) == 0 {
		return
	}
	st := r.procs[arg%len(r.procs)]
	if !st.p.done && !st.p.killed {
		switch {
		case st == self:
			st.selfKill = true
			st.at, st.idx = r.e.now, r.e.seq+1
		case !st.started:
			// Dies at its activation without running: nothing to observe.
		case st.idx == 0 || st.at > r.e.now:
			st.at, st.idx = r.e.now, r.e.seq+1
		}
	}
	st.p.Kill()
}

// runOrderProgram seeds an engine with a few callbacks and processes, lets
// script drive them, and checks the run. It returns the interpreter for the
// caller's coverage accounting.
func runOrderProgram(t testing.TB, script []byte) *orderRun {
	r := &orderRun{t: t, e: New(), script: script}
	e := r.e
	for i := 0; i < 4; i++ {
		e.At(Time(i), r.callback(Time(i)))
	}
	r.spawn()
	r.spawn()
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := e.Stats()
	if !r.stopped && st.Pops != st.Pushes {
		t.Errorf("drained run executed %d of %d events", st.Pops, st.Pushes)
	}
	if uint64(r.seen) > st.Pops {
		t.Errorf("%d activations observed from %d events", r.seen, st.Pops)
	}
	r.quiet = true
	e.Shutdown()
	return r
}

// TestEngineOrderProperty runs seeded random programs and requires that,
// between them, they reached the states the lane's and the runs' ordering
// arguments are about: heap and lane events pending for one instant, a
// multi-event run in the heap while the lane fills, processes unwound by a
// kill, stale wake-ups executed for finished processes, and a Stop that
// abandons a half-drained instant.
func TestEngineOrderProperty(t *testing.T) {
	var sawMixed, sawRun, sawKillUnwind, sawStale, sawStop bool
	for seed := int64(0); seed < 300 && !t.Failed(); seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 32+rng.Intn(480))
		rng.Read(script)
		for i, b := range script {
			if b&15 == opStop { // a Stop ends the program: allow one, in one seed of four, late
				script[i] = b&0xf0 | opWake
			}
		}
		if seed%4 == 3 {
			script[len(script)/2+rng.Intn(len(script)/2)] = 0xf0 | opStop
		}
		r := runOrderProgram(t, script)
		st := r.e.Stats()
		sawMixed = sawMixed || r.sawMixed
		sawRun = sawRun || r.sawRun
		sawKillUnwind = sawKillUnwind || r.sawKillUnwind
		sawStale = sawStale || !r.stopped && uint64(r.seen) < st.Pops
		sawStop = sawStop || r.stopped && st.Pops < st.Pushes
	}
	if !sawMixed || !sawRun || !sawKillUnwind || !sawStale || !sawStop {
		t.Fatalf("programs too tame: heap+lane at one instant %v, heap run beside the lane %v, kill unwinds %v, stale wake-ups %v, stop mid-instant %v",
			sawMixed, sawRun, sawKillUnwind, sawStale, sawStop)
	}
}

// FuzzEngineOrder lets the fuzzer write the program byte by byte.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	// A callback at t=1 pushes for its own instant while an After(1) from t=0
	// is still pending for it on the heap.
	f.Add([]byte{opAfterD, opExit, opExit, opExit, opAfter0, opExit})
	f.Add([]byte{opAfter0, opAtNow, opExit, opSleep0, opAfterD, opYield, opAfter0, opExit})
	f.Add([]byte{opSpawn, opPark, opWake, opKill | 0x20, opSleepD | 0x10, opKill, opPark, opAfter0, opWake})
	f.Add([]byte{opAfterD, opAfterD, opExit, opAfter0, opAfter0, 0xf0 | opStop, opAfter0})
	f.Add([]byte{opKill | 0x10, opSleepD, opSpawn, opKill | 0x20, opYield, opAtNow, opPark, opWake, opSleep0})
	// Two runs for t=2 with an event for t=3 between them, then more pushes
	// for t=2 from t=1, and the lane filling beside the runs at t=2.
	f.Add([]byte{opBurst | 0x40, opAfterD | 0x20, opBurst | 0x50, opExit, opAfter0, opBurst | 0x20, opAfterD, opExit,
		opAfter0, opAtNow, opBurst | 0x70, opExit, opAfter0, opAfter0, opExit})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 2048 {
			script = script[:2048]
		}
		runOrderProgram(t, script)
	})
}
