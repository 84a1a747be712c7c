package ckpt

import (
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
)

// localTimers drives the two uncoordinated families: every node checkpoints
// on a local timer with no synchronization. Each node's next timer is armed
// only when its previous checkpoint has fully reached stable storage, so
// timers that start synchronized drift apart as the storage queue delays
// them differently — the natural staggering the paper observes in the
// Indep_M results.
//
// Checkpoint-interval dependencies (needed to compute a recovery line and to
// study the domino effect) are tracked by piggybacking the sender's current
// interval index on every message and recording it when the receiver
// consumes the message; the edges of the interval being closed are persisted
// inside the checkpoint file.
//
// Independent checkpointing (DriverTimers) is exactly that. Communication-
// induced checkpointing (DriverInduced) is that plus a forced-checkpoint
// predicate on the piggyback — the structural point of Garcia, Vieira &
// Buzato's survey — here the index-based protocol of Briatico, Ciuffoletti &
// Simoncini (BCS): the checkpoint index doubles as a logical clock, and
// before delivering a message whose piggybacked index exceeds the local one
// the receiver takes a forced checkpoint and jumps its index to the
// message's. The rule keeps checkpoints with equal indices concurrent, so the
// set of highest-indexed checkpoints always forms a consistent cut — no
// coordination messages, no domino effect. The family adds three things to
// the driver, each switched on the axis: the induction rule (preConsume),
// the stale-basic skip (timerAction.atIndex), and the termination checkpoint
// (onAppExit).
type localTimers struct {
	v     Variant
	opt   Options
	m     *par.Machine
	nodes []*timerNode

	// The family's trace constants, fixed at construction: the piggyback slot
	// carrying the sender's index and the checkpointer daemon's name format.
	// (Its storage root is Variant.StorageRoot.)
	slot   par.PiggybackKey
	daemon string

	stopped bool
	stats   Stats
	records []Record

	commitHook CommitHook // correctness-oracle hook, nil when disarmed
}

func newLocalTimers(v Variant, opt Options) *localTimers {
	if v.Driver == DriverInduced {
		return &localTimers{v: v, opt: opt, slot: par.PBCIC, daemon: "cicd%d"}
	}
	return &localTimers{v: v, opt: opt, slot: par.PBInterval, daemon: "ckptd%d"}
}

func (s *localTimers) Name() string     { return s.v.String() }
func (s *localTimers) Variant() Variant { return s.v }
func (s *localTimers) Stats() Stats     { return s.stats }
func (s *localTimers) Stop()            { s.stopped = true }
func (s *localTimers) induced() bool    { return s.v.Driver == DriverInduced }

// SetCommitHook arms the correctness-oracle hook, fired once per durably
// completed checkpoint with its single record.
func (s *localTimers) SetCommitHook(h CommitHook) { s.commitHook = h }

// Records returns committed checkpoints ordered by completion time (ties by
// rank) — the order they became durable.
func (s *localTimers) Records() []Record {
	out := append([]Record(nil), s.records...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// Attach installs the per-node timers, hooks and daemons.
func (s *localTimers) Attach(m *par.Machine) {
	s.m = m
	s.nodes = make([]*timerNode, m.NumNodes())
	for i := range m.Nodes {
		tn := &timerNode{s: s, deps: make(map[Dep]struct{})}
		if s.opt.StartIndices != nil {
			// Recovery continuation: the durable files below the rollback line
			// keep their indices, so the restarted node's next checkpoint must
			// take the next free index (files are written append-only; index
			// reuse would corrupt a survivor) — and the induced family's
			// logical clock must restart at the restored checkpoint's index
			// to keep forcing correct.
			tn.index = s.opt.StartIndices[i]
		}
		tn.jobs = sim.NewMailbox[func(p *sim.Proc)](m.Eng)
		s.nodes[i] = tn
		s.attachNode(i)
		m.Eng.After(s.opt.firstAt()+sim.Duration(i)*s.opt.Spread, tn.timerFire)
	}
	if s.induced() {
		m.OnAppExit(s.onAppExit)
	}
	m.OnAllAppsDone(s.Stop)
}

// attachNode (re)binds the scheme's per-node hooks and daemon; recovery of a
// restarted node calls it again after Node.Restart cleared them.
func (s *localTimers) attachNode(i int) {
	tn := s.nodes[i]
	n := s.m.Nodes[i]
	tn.n = n
	n.OutMeta = tn.outMeta
	n.OnConsume = tn.onConsume
	if s.induced() {
		n.PreConsume = tn.preConsume
	}
	if s.v.SenderLog {
		n.LogSend = tn.logSend
		n.DeliverHook = tn.hook
	}
	s.m.StartDaemon(i, fmt.Sprintf(s.daemon, i), daemonLoop(tn.jobs))
}

func (s *localTimers) EnqueueJob(rank int, job func(p *sim.Proc)) {
	s.nodes[rank].jobs.Put(job)
}

// timerNode is one node's autonomous checkpointer.
type timerNode struct {
	s *localTimers
	n *par.Node

	index int // checkpoints taken; the current interval has this index (induced: the BCS logical clock)
	taken int // basic checkpoints taken, for the MaxCheckpoints cap
	deps  map[Dep]struct{}
	busy  bool // a basic checkpoint is pending or in progress (snapshot through durable write)

	// inc is the base+delta encoder state (incremental capture only), created
	// at the first capture once the app's snapshotter — and so its page size
	// — is bound. A fresh node starts unprimed: its first checkpoint is a
	// base. Incremental points block for every write, so captures and writes
	// are strictly sequential and the retained image always matches the last
	// durable checkpoint.
	inc *IncCapture

	// Sender-based message log (SenderLog): outgoing messages kept in
	// volatile memory until the receiver's next checkpoint truncates them.
	log      []logEntry
	logBytes int64

	jobs *sim.Mailbox[func(p *sim.Proc)]
}

// daemonLoop is every checkpointer daemon's body, under either driver: run
// the jobs queued for the node, in order, forever.
func daemonLoop(jobs *sim.Mailbox[func(p *sim.Proc)]) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		for {
			jobs.GetAny(p)(p)
		}
	}
}

func (tn *timerNode) outMeta() par.Piggyback {
	var pb par.Piggyback
	pb[tn.s.slot] = uint64(tn.index)
	return pb
}

// onConsume records the receive edge for recovery-line analysis; it runs
// after preConsume, so the edge lands in the interval the message is
// actually delivered in.
func (tn *timerNode) onConsume(src int, meta par.Piggyback, ssn uint64) {
	if src == tn.n.ID {
		return
	}
	tn.deps[Dep{SrcRank: src, SrcIndex: meta[tn.s.slot]}] = struct{}{}
}

func (tn *timerNode) timerFire() {
	s := tn.s
	if s.stopped || tn.busy {
		return
	}
	if s.opt.MaxCheckpoints > 0 && tn.taken >= s.opt.MaxCheckpoints {
		return
	}
	if tn.n.AppProc == nil || tn.n.AppProc.Done() {
		return
	}
	tn.busy = true
	tn.n.PostAction(timerAction{tn: tn, atIndex: tn.index})
}

// rearm ends a basic checkpoint: the next local timer counts from completion
// (the natural drift).
func (tn *timerNode) rearm() {
	tn.busy = false
	if tn.s.opt.Interval > 0 {
		tn.n.M.Eng.After(tn.s.opt.Interval, tn.timerFire)
	}
}

// timerAction is the basic (timer) checkpoint, run in the application
// process at its next safe point. atIndex detects a forced checkpoint that
// slipped in between the timer firing and the safe point: the forced
// checkpoint already did the work, so the basic one is skipped — the classic
// CIC optimization that makes every checkpoint useful.
type timerAction struct {
	tn      *timerNode
	atIndex int
}

func (a timerAction) Run(p *sim.Proc, n *par.Node) {
	tn := a.tn
	s := tn.s
	if s.induced() && (s.stopped || tn.index != a.atIndex) {
		tn.busy = false
		if !s.stopped {
			tn.rearm()
		}
		return
	}
	start := p.Now()
	tn.index++
	tn.taken++
	c := tn.capture(kindBasic)
	sp := s.m.Obs.Start(n.ID, obs.TidApp, "ckpt.blocked").WithArg("index", int64(c.index))
	if s.induced() {
		s.m.Obs.Add(n.ID, "cic.basic_ckpts", 1)
	}
	tn.save(p, c)
	sp.End()
	s.m.Obs.ObserveDur(n.ID, "ckpt.blocked_time", p.Now().Sub(start))
	s.stats.AppBlocked += p.Now().Sub(start)
}

// preConsume is the induced rule, running at the delivery safe point in the
// application's context: a message from the sender's interval midx must not
// be delivered into a local interval behind it, so the node first takes a
// forced checkpoint and jumps its index to midx.
func (tn *timerNode) preConsume(p *sim.Proc, src int, meta par.Piggyback) {
	midx := int(meta[tn.s.slot])
	if src == tn.n.ID || midx <= tn.index {
		return
	}
	s := tn.s
	start := p.Now()
	tn.index = midx
	c := tn.capture(kindForced)
	fsp := s.m.Obs.Start(tn.n.ID, obs.TidApp, "cic.forced").WithArg("index", int64(midx))
	s.m.Obs.Add(tn.n.ID, "cic.forced_ckpts", 1)
	s.stats.ForcedCkpts++
	tn.save(p, c)
	fsp.End()
	s.m.Obs.ObserveDur(tn.n.ID, "cic.forced_latency", p.Now().Sub(start))
	s.m.Obs.ObserveDur(tn.n.ID, "ckpt.blocked_time", p.Now().Sub(start))
	s.stats.AppBlocked += p.Now().Sub(start)
}

// onAppExit takes the induced family's termination checkpoint: it runs in
// the exiting application process's context but consumes no virtual time —
// the state is captured instantly and written in the background, after the
// measured execution, so it is free. It is what upgrades BCS's "indices form
// consistent cuts" into the end-of-run zero-rollback guarantee: every send
// precedes its sender's termination checkpoint, so at end of run the
// recovery line equals each node's latest checkpoint — no rollback, no
// garbage (asserted by the rdg guarantee test on the domino workload).
func (s *localTimers) onAppExit(nodeID int) {
	if s.stopped {
		// Exit hooks outlive the scheme across a machine crash (they are
		// per-machine, not per-incarnation): a stopped scheme must not take
		// termination checkpoints for the replacement incarnation's exits.
		return
	}
	tn := s.nodes[nodeID]
	tn.index++
	s.stats.FinalCkpts++
	s.m.Obs.Add(nodeID, "cic.final_ckpts", 1)
	tn.jobs.Put(tn.writeJob(tn.capture(kindFinal)))
}

// Checkpoint kinds, for accounting in writeJob: only basic checkpoints own
// the node's timer and count against MaxCheckpoints.
const (
	kindBasic = iota
	kindForced
	kindFinal
)

// ckptCapture is one checkpoint on its way from the capture in the
// application's context to the durable write on the daemon.
type ckptCapture struct {
	index int
	kind  int
	deps  []Dep // receive edges of the interval this checkpoint closes
	lib   []byte
	prev  int

	// The record's state section is state followed by pad zero bytes. Under
	// full capture state is the bare snapshot and pad the process image's
	// size: the padded image is never built, the file is gathered from the
	// snapshot and the shared zero page. Under incremental capture state is
	// the base/delta payload (pad 0), aliasing scratch's pooled buffer until
	// it is embedded in the file, and snap the bare snapshot, encoded where
	// the program returned it. Its image becomes the diff baseline once the
	// file is durable: the node's IncCapture then holds snap itself — a new
	// holder of the lent bytes, until the next commit — so the padded image is
	// never built here either.
	state   []byte
	pad     int
	snap    []byte
	scratch *codec.Writer

	consumed []uint64  // SenderLog: per-sender consumed SSNs at the capture
	gate     *sim.Gate // opened on completion when the application is waiting
}

// stateBytes is the size of the record's state section.
func (c *ckptCapture) stateBytes() int { return len(c.state) + c.pad }

// captureImage is the step every driver's capture shares: snapshot the
// program at c.index and — under incremental capture — encode the base or
// delta payload of its process image against the last durable image into
// pooled scratch (which the caller frees once the payload is embedded in the
// file). Runs in the application's context, like every state capture in the
// library.
func (c *ckptCapture) captureImage(n *par.Node, v Variant, inc **IncCapture) {
	c.state, c.pad = par.SnapshotAt(n.Snap, c.index), max(n.M.Cfg.CkptImageBytes, 0)
	if !v.Incremental() {
		return // nothing to retain for diffing
	}
	if *inc == nil {
		*inc = NewIncCapture(par.StatePageSizeOf(n.Snap), c.pad)
	}
	c.snap, c.pad = c.state, 0
	c.scratch = codec.GetWriter()
	c.state, c.prev = (*inc).EncodeTo(c.scratch, c.snap)
}

// capture closes the current checkpoint interval at tn.index: its receive
// edges are detached (sorted for determinism) to be persisted with this
// checkpoint — messages consumed from now on belong to the next interval —
// and the application and library states are serialized.
func (tn *timerNode) capture(kind int) *ckptCapture {
	c := &ckptCapture{index: tn.index, kind: kind, deps: make([]Dep, 0, len(tn.deps))}
	for d := range tn.deps {
		c.deps = append(c.deps, d)
	}
	sort.Slice(c.deps, func(i, j int) bool {
		if c.deps[i].SrcRank != c.deps[j].SrcRank {
			return c.deps[i].SrcRank < c.deps[j].SrcRank
		}
		return c.deps[i].SrcIndex < c.deps[j].SrcIndex
	})
	tn.deps = make(map[Dep]struct{})
	c.captureImage(tn.n, tn.s.v, &tn.inc)
	if tn.n.Lib != nil {
		c.lib = tn.n.Lib.Snapshot()
		if lc, ok := tn.n.Lib.(interface{ LastConsumedSSN() []uint64 }); ok && tn.s.v.SenderLog {
			c.consumed = lc.LastConsumedSSN()
		}
	}
	return c
}

// save performs the write policy's blocking part of a basic or forced
// checkpoint in the application's context: a memory-buffered variant copies
// the state in memory and writes in the background; the others park the
// application until the write is durable.
func (tn *timerNode) save(p *sim.Proc, c *ckptCapture) {
	s := tn.s
	if s.v.MemBuffered() {
		d := tn.n.M.MemCopyTime(c.stateBytes())
		msp := s.m.Obs.Start(tn.n.ID, obs.TidApp, "ckpt.memcopy")
		p.Sleep(d)
		msp.End()
		s.stats.MemCopyTime += d
		tn.jobs.Put(tn.writeJob(c))
		return
	}
	c.gate = sim.NewGate(tn.n.M.Eng)
	tn.jobs.Put(tn.writeJob(c))
	c.gate.Wait(p)
}

// writeJob writes the captured checkpoint durably on the daemon, records it,
// opens the gate if the application is waiting, and — for a basic checkpoint
// — re-arms the node's timer.
//
// When the write fails through the retry budget (storage outage), the
// checkpoint is skipped rather than fatal: the closed interval's dependency
// edges merge back into the live set so they ride with the next durable
// checkpoint (conservative — the recovery-line search sees a superset of the
// true edges), the index stays advanced (a sparse index sequence is legal),
// and a basic timer re-arms so the node tries again next period. Skipping a
// *forced* checkpoint weakens the induced-consistency guarantee for the
// duration of the outage — the index already jumped, but no durable
// checkpoint backs it — which is the standard CIC degradation under storage
// failure; the skip counter surfaces how often it happened.
func (tn *timerNode) writeJob(c *ckptCapture) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		// An incremental c.state aliases the pooled scratch; it is embedded
		// (copied) into file below and only its length is read after that, so
		// the scratch is recycled when the job ends — even by a crash
		// unwinding it mid-write. A full-image c.state is the snapshot itself,
		// which file lends to stable storage and nobody writes again.
		defer c.scratch.Free()
		s := tn.s
		k := c.index
		file := encodeCkptFile(s.v, CkptFile{Index: k, Prev: c.prev, Deps: c.deps, State: c.state, Lib: c.lib}, c.pad)
		wsp := s.m.Obs.Start(tn.n.ID, obs.TidDaemon, "ckpt.disk_write").WithArg("index", int64(k))
		err := writeSegmentedChecked(p, tn.n, s.v.StatePath(tn.n.ID, k), file, false)
		wsp.End()
		if err != nil {
			s.stats.SkippedCkpts++
			s.m.Obs.Add(tn.n.ID, "ckpt.skipped", 1)
			for _, d := range c.deps {
				tn.deps[d] = struct{}{}
			}
			if c.gate != nil {
				c.gate.Open()
			}
			if c.kind == kindBasic {
				tn.taken-- // the budget counts durable checkpoints only
				tn.rearm()
			}
			return
		}
		s.m.Obs.Add(tn.n.ID, "ckpt.state_bytes", int64(c.stateBytes()))
		s.m.Obs.InstantArg(tn.n.ID, obs.TidDaemon, "ckpt.commit", "index", int64(k))
		s.stats.StateBytes += int64(c.stateBytes())
		if c.kind != kindFinal {
			// Termination checkpoints complete after the measured execution
			// and must not inflate the completed-checkpoint normalization.
			s.stats.Checkpoints++
		}
		rec := Record{
			Rank: tn.n.ID, Index: k, At: p.Now(),
			StateBytes: c.stateBytes(), Deps: c.deps, Prev: c.prev,
		}
		s.records = append(s.records, rec)
		if s.v.Incremental() {
			// Only now — with the file durable — does the snapshot become the
			// diff baseline; a skipped checkpoint (the return above) re-diffs
			// against the old one.
			tn.inc.Commit(k, c.snap, c.prev)
		}
		if s.commitHook != nil {
			s.commitHook([]Record{rec})
		}
		if c.gate != nil {
			c.gate.Open()
		}
		// With the checkpoint durable, senders may discard everything this
		// node consumed before it: their logged copies can never be needed.
		for src, upTo := range c.consumed {
			if src == tn.n.ID || upTo == 0 {
				continue
			}
			s.stats.ProtoMsgs++
			s.stats.ProtoBytes += sizeCtl
			tn.n.Send(p, fabric.NodeID(src), par.PortDaemon,
				msgLogTrunc{From: tn.n.ID, UpTo: upTo}, sizeCtl)
		}
		if c.kind == kindBasic {
			tn.rearm()
		}
	}
}
