package ckpt

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Each window of a round is announced through par.Machine.NotePhase as the
// round passes into it; the names are the coordinator-kill axis of the E15
// experiment and the oracle's failover sweep.
const (
	PhaseRound     = "round"     // request broadcast; state writes under way
	PhaseAcks      = "acks"      // every participant acked
	PhasePreCommit = "precommit" // pre-commit broadcast (ThreePhase only)
	PhaseMeta      = "meta"      // round record durable, commit not yet sent
	PhaseCommit    = "commit"    // commit broadcast
)

// CoordPhases lists the round's windows in announcement order.
var CoordPhases = []string{PhaseRound, PhaseAcks, PhasePreCommit, PhaseMeta, PhaseCommit}

// Announces reports whether a round under v passes through phase: only the
// coordinated variants run rounds, and only the ThreePhase ones pre-commit.
func (v Variant) Announces(phase string) bool {
	return v.Coordinated() && (phase != PhasePreCommit || v.ThreePhase)
}

// coordinated implements the Silva & Silva coordinator-driven two-phase
// global checkpointing protocol with channel markers.
//
// Round structure (round numbers start at 1):
//
//  1. The coordinator (node 0) sends a checkpoint request to every node's
//     daemon.
//  2. Each node, on its request (or on the first marker of the round,
//     whichever arrives first), begins quarantining post-marker messages and
//     posts a checkpoint action to its application.
//  3. The action runs at the application's next safe point: it snapshots
//     the program state, captures unconsumed in-transit messages as channel
//     state, releases the quarantine, and sends markers on all channels.
//     Depending on the variant the application then blocks for the memory
//     copy (NBM/NBMS), the stable-storage write (NB), or the whole protocol
//     (B).
//  4. The daemon writes the state (NBMS: after acquiring the staggering
//     token) and, once all markers arrived, the channel log — both durably,
//     to uniquely named per-round files — then acks the coordinator.
//  5. On all acks the coordinator durably writes the round record (the
//     commit point), then broadcasts commit; nodes garbage-collect the
//     previous round's files.
//
// Abort-and-retry: a participant whose durable write fails through its retry
// budget nacks instead of acking; the coordinator then broadcasts an abort
// (participants discard round state, release quarantined messages and
// unblock their applications) and retries the round after a capped backoff.
// The retry reuses the SAME round number under a bumped attempt generation:
// round numbers map to the two file slots by parity, so retrying under r+1
// would overwrite the slot holding the last committed round — the one
// recovery depends on. Every control message carries the attempt so stale
// traffic from aborted attempts filters out on comparison.
type coordinated struct {
	v     Variant
	opt   Options
	m     *par.Machine
	nodes []*coordNode

	round          int // last initiated round
	committedRound int
	attempt        int // initiation generation, bumped per (re)initiation
	acks           map[int]bool
	roundStart     sim.Time
	stopped        bool
	commitBusy     bool
	pendingStart   bool // the cadence timer fired while a round was in flight
	retryPending   bool // an aborted round is waiting out its backoff
	abortStreak    int  // consecutive aborts of the current round number

	// Failover state (fault-tolerant variants only; inert otherwise).
	// coordID is the acting coordinator's rank: 0 until a takeover, the
	// elected successor after one. preAcks collects the pre-commit phase's
	// confirmations; electAcks the survivors' votes during an election.
	coordID   int
	preAcks   map[int]bool
	electAcks map[int]msgElectAck

	stats   Stats
	records []Record
	pending []Record // records of the in-flight round, promoted at commit

	roundSpan obs.Span // open "ckpt.round" span of the in-flight round
}

func newCoordinated(v Variant, opt Options) *coordinated {
	return &coordinated{v: v, opt: opt, round: opt.StartRound, committedRound: opt.StartRound}
}

func (s *coordinated) Variant() Variant { return s.v }
func (s *coordinated) Stats() Stats     { return s.stats }

func (s *coordinated) Records() []Record {
	return append([]Record(nil), s.records...)
}

// Attach installs the protocol on the machine and arms the first round.
func (s *coordinated) Attach(m *par.Machine) {
	s.m = m
	s.acks = make(map[int]bool)
	s.nodes = make([]*coordNode, m.NumNodes())
	for i, n := range m.Nodes {
		cn := &coordNode{s: s, n: n, img: heldImage{incremental: s.v.Incremental()}}
		s.nodes[i] = cn
		n.DeliverHook = cn.hook
		m.StartDaemon(i, fmt.Sprintf("ckptd%d", i), n.ServeJobs)
	}
	m.OnAllAppsDone(func() { s.stopped = true })
	m.OnAppExit(func(nodeID int) {
		if s.stopped {
			// Exit hooks outlive the scheme across a machine crash (they are
			// per-machine, not per-incarnation): a stopped scheme must not
			// react to the replacement incarnation's application exits.
			return
		}
		s.nodes[nodeID].onAppExit()
	})
	if s.v.ThreePhase {
		s.armFailover()
	}
	m.Eng.After(s.opt.Interval, s.startRound)
}

// startRound initiates a round at the cadence of Options.Interval: the next
// timer is armed immediately, so rounds fire at a fixed rate (as a real
// coordinator's periodic timer does); if a round is still in flight when the
// timer fires, the next round starts right after its commit.
func (s *coordinated) startRound() {
	if s.stopped || s.coordID != 0 {
		// After a takeover the successor only resolves the interrupted round;
		// it never initiates new ones — the failed coordinator's node cannot
		// participate until a full recovery restarts the machine, so any new
		// round would hang waiting for its ack forever.
		return
	}
	if s.opt.MaxCheckpoints > 0 && s.round-s.opt.StartRound >= s.opt.MaxCheckpoints {
		return
	}
	if s.round != s.committedRound || s.retryPending {
		s.pendingStart = true // previous round still in flight or backing off
		return
	}
	if s.opt.Interval > 0 {
		s.m.Eng.After(s.opt.Interval, s.startRound)
	}
	s.initiateRound(s.round + 1)
}

// initiateRound broadcasts the checkpoint requests of one attempt at the
// round; the cadence timer is managed by startRound, so the abort-retry path
// can re-initiate without double-arming it.
func (s *coordinated) initiateRound(round int) {
	s.round = round
	s.attempt++
	s.roundStart = s.m.Eng.Now()
	s.acks = make(map[int]bool)
	s.pending = nil
	s.roundSpan = s.m.Obs.Start(0, obs.TidCoord, "ckpt.round").WithArg("round", int64(round))
	s.m.Obs.Add(0, "ckpt.marker_rounds", 1)
	s.broadcast(s.coordID, msgCkptReq{Round: round, Attempt: s.attempt})
	s.m.NotePhase(PhaseRound, round)
}

// onNack runs at the coordinator when a participant reports that its durable
// write failed through its retry budget.
func (s *coordinated) onNack(round, attempt int) {
	if attempt != s.attempt || round != s.round || s.round == s.committedRound {
		return // stale: the attempt already aborted or committed
	}
	s.abortRound()
}

// abortRound cancels the in-flight attempt and schedules a retry of the same
// round number after a capped, jittered backoff that grows with consecutive
// aborts. Participants discard their round state on the abort broadcast; the
// retry rewrites both slot files from scratch, so no partial durable state
// survives an aborted attempt.
func (s *coordinated) abortRound() {
	round, attempt := s.round, s.attempt
	s.stats.RoundsAborted++
	s.m.Obs.Add(0, "ckpt.rounds_aborted", 1)
	s.m.Obs.InstantArg(0, obs.TidCoord, "ckpt.abort", "round", int64(round))
	s.roundSpan.End()
	s.roundSpan = obs.Span{}
	s.pending = nil
	s.commitBusy = false
	s.preAcks = nil
	s.round = s.committedRound
	s.retryPending = true
	s.abortStreak++
	s.broadcast(s.coordID, msgAbort{Round: round, Attempt: attempt})
	s.m.Eng.After(s.m.Backoff(s.abortStreak), func() {
		s.retryPending = false
		if s.stopped {
			return // the workload finished while the round was backing off
		}
		s.initiateRound(round)
	})
}

func (s *coordinated) proto(n int) {
	s.stats.ProtoMsgs += int64(n)
	s.stats.ProtoBytes += int64(n * sizeCtl)
}

// broadcast sends one control message from rank from to every node's daemon,
// itself included, in rank order.
func (s *coordinated) broadcast(from int, msg any) {
	coord := s.m.Nodes[from]
	for i := range s.nodes {
		s.proto(1)
		coord.Send(nil, fabric.NodeID(i), par.PortDaemon, msg, sizeCtl)
	}
}

// onAck runs at the coordinator when a node's ack arrives.
func (s *coordinated) onAck(ackRound, ackAttempt, from int) {
	if ackRound != s.round || ackAttempt != s.attempt || s.acks[from] {
		return
	}
	s.acks[from] = true
	if len(s.acks) < len(s.nodes) || s.commitBusy {
		return
	}
	s.commitBusy = true
	round, attempt := s.round, s.attempt
	s.m.NotePhase(PhaseAcks, round)
	if s.v.ThreePhase {
		// Phase 2 of the fault-tolerant protocol: broadcast pre-commit and
		// collect every pre-ack before touching the round record. A targeted
		// crash fired by the announcement above kills the coordinator right
		// here; the round then resolves through the election instead.
		if !s.m.Nodes[s.coordID].Alive {
			return
		}
		s.preCommitRound(round, attempt)
		return
	}
	// Phase 2: durably record the round (the commit point), then broadcast.
	s.writeMetaJob(0, round, attempt, false)
}

func (s *coordinated) commitRound(round, attempt int) {
	s.commitBusy = false
	s.preAcks = nil
	s.committedRound = round
	s.abortStreak = 0
	committed := s.pending
	s.records = append(s.records, s.pending...)
	s.pending = nil
	s.stats.Rounds++
	s.stats.Checkpoints += len(s.nodes)
	s.stats.RoundLatency = append(s.stats.RoundLatency, s.m.Eng.Now().Sub(s.roundStart))
	s.roundSpan.End()
	s.m.Obs.InstantArg(0, obs.TidCoord, "ckpt.commit", "round", int64(round))
	if s.opt.CommitHook != nil {
		s.opt.CommitHook(committed)
	}
	s.broadcast(s.coordID, msgCommit{Round: round, Attempt: attempt})
	s.m.NotePhase(PhaseCommit, round)
	if s.pendingStart {
		s.pendingStart = false
		s.startRound()
	}
}

// coordNode is the per-node protocol participant.
type coordNode struct {
	s *coordinated
	n *par.Node

	round        int // active round, 0 when idle
	attempt      int // attempt generation of the last round joined
	snapshotDone bool
	markerSeen   []bool
	markersLeft  int
	quarantine   []*fabric.Envelope
	chanLog      []*mp.Message
	chanBytes    int // durable channel-log size of the active round

	stateWritten, chanQueued, chanWritten, acked bool

	// Failover participant state. coordRank is where acks and nacks go: 0
	// until a takeover announcement redirects it to the successor.
	// precommitted records that this node saw the round's pre-commit — the
	// vote that lets a successor finish the round. lastBeat is the arrival
	// time of the acting coordinator's most recent heartbeat (or takeover
	// announcement); the monitor timer measures silence against it.
	coordRank    int
	precommitted bool
	lastBeat     sim.Time

	appGate   *sim.Gate // blocks the application in B and NB
	tokenGate *sim.Gate // staggering token (NBMS)

	img heldImage // the node's last image, and the in-flight round's capture

	syncSpan obs.Span // "ckpt.sync": round begin until the local safe point
}

// hook intercepts every envelope delivered to the node; it runs in engine
// context so markers take effect instantly even when the daemon is busy.
func (cn *coordNode) hook(env *fabric.Envelope) bool {
	switch msg := env.Payload.(type) {
	case msgCkptReq:
		if msg.Round > cn.s.committedRound && msg.Attempt > cn.attempt {
			if cn.round != 0 {
				cn.abortLocal() // a newer attempt supersedes the one we are in
			}
			cn.beginRound(msg.Round, msg.Attempt)
		}
		return true
	case msgMarker:
		if msg.Attempt < cn.attempt || (msg.Attempt == cn.attempt && cn.round == 0) {
			return true // stale marker from an attempt already over locally
		}
		if cn.round != 0 && msg.Attempt > cn.attempt {
			if msg.Round == cn.round+1 {
				// A marker of the next round can outrun our commit message
				// (they come from different senders, so FIFO does not order
				// them). The coordinator only starts round r+1 after round r
				// committed, so the marker itself proves the commit: finish
				// locally first.
				cn.finishRound()
			} else {
				// A peer is already in a newer attempt of our round: its
				// marker outran the coordinator's abort. The abort is proven;
				// discard our attempt and join the new one below.
				cn.abortLocal()
			}
		}
		if cn.round == 0 {
			cn.beginRound(msg.Round, msg.Attempt) // marker outran the request
		}
		if msg.Round != cn.round || msg.Attempt != cn.attempt {
			panic(fmt.Sprintf("ckpt: node %d marker for round %d/%d during round %d/%d",
				cn.n.ID, msg.Round, msg.Attempt, cn.round, cn.attempt))
		}
		if !cn.markerSeen[msg.From] {
			cn.markerSeen[msg.From] = true
			cn.markersLeft--
			cn.maybeFinishLogging()
		}
		return true
	case msgCommit:
		if cn.round == msg.Round && cn.attempt == msg.Attempt {
			cn.finishRound()
		}
		// No garbage collection needed: the slot of round-1 is overwritten
		// by round+1's files.
		return true
	case msgAbort:
		if cn.round == msg.Round && cn.attempt == msg.Attempt {
			cn.abortLocal()
		}
		return true
	case msgToken:
		if cn.round == msg.Round && cn.attempt == msg.Attempt && cn.tokenGate != nil {
			cn.tokenGate.Open()
		}
		return true
	case msgAck:
		cn.s.onAck(msg.Round, msg.Attempt, msg.From)
		return true
	case msgNack:
		cn.s.onNack(msg.Round, msg.Attempt)
		return true
	case msgPreCommit:
		// Pre-commit is broadcast only after every ack, so an in-round node
		// has necessarily acked; anything else is stale traffic.
		if cn.round == msg.Round && cn.attempt == msg.Attempt && cn.acked {
			cn.precommitted = true
			cn.s.proto(1)
			cn.n.Send(nil, fabric.NodeID(cn.coordRank), par.PortDaemon,
				msgPreAck{Round: msg.Round, Attempt: msg.Attempt, From: cn.n.ID}, sizeCtl)
		}
		return true
	case msgPreAck:
		cn.s.onPreAck(msg.Round, msg.Attempt, msg.From)
		return true
	case msgHeartbeat:
		cn.onHeartbeat(msg.From)
		return true
	case msgElect:
		cn.onElect(msg.From)
		return true
	case msgElectAck:
		cn.s.onElectAck(msg)
		return true
	case *mp.Message:
		return cn.hookAppMsg(env, msg)
	}
	return false
}

// hookAppMsg applies the channel-state rules of the snapshot algorithm.
func (cn *coordNode) hookAppMsg(env *fabric.Envelope, msg *mp.Message) bool {
	if cn.round == 0 || msg.Src == cn.n.ID {
		return false
	}
	switch {
	case cn.markerSeen[msg.Src] && !cn.snapshotDone:
		// Sent after the sender's checkpoint but we have not checkpointed
		// yet: quarantining it keeps it out of our checkpointed state,
		// preventing orphan messages.
		cn.quarantine = append(cn.quarantine, env)
		return true
	case !cn.markerSeen[msg.Src] && cn.snapshotDone:
		// Sent before the sender's checkpoint, received after ours: channel
		// state. Log a copy and deliver normally.
		cn.chanLog = append(cn.chanLog, msg)
		return false
	}
	return false
}

// finishRound concludes the node's participation in the active round, on
// the commit message or on evidence that the commit happened.
func (cn *coordNode) finishRound() {
	cn.img.commit()
	cn.round = 0
	cn.precommitted = false
	if cn.s.v.Write == WriteToCommit && cn.appGate != nil {
		cn.appGate.Open()
	}
}

// abortLocal discards the node's state for an aborted attempt: quarantined
// messages return to the application in arrival order (per-sender FIFO is
// preserved — once a sender's messages start quarantining, all its later
// ones do too until the snapshot), gates open so blocked processes resume,
// and stale jobs of the attempt recognize themselves by the round/attempt
// mismatch and fall through.
func (cn *coordNode) abortLocal() {
	if cn.round == 0 {
		return
	}
	cn.syncSpan.End()
	cn.syncSpan = obs.Span{}
	for _, env := range cn.quarantine {
		cn.n.AppBox.Put(env)
	}
	cn.quarantine = nil
	cn.chanLog = nil
	cn.img.abort() // the retry re-diffs against the last committed image
	cn.round = 0
	cn.precommitted = false
	if cn.appGate != nil {
		cn.appGate.Open()
	}
	if cn.tokenGate != nil {
		cn.tokenGate.Open() // unstick an NBMS write job parked on the token
	}
}

func (cn *coordNode) beginRound(round, attempt int) {
	if cn.round != 0 {
		panic(fmt.Sprintf("ckpt: node %d beginRound(%d) while round %d active", cn.n.ID, round, cn.round))
	}
	n := len(cn.s.nodes)
	cn.round = round
	cn.attempt = attempt
	cn.snapshotDone = false
	cn.markerSeen = make([]bool, n)
	cn.markersLeft = n - 1
	cn.quarantine = nil
	cn.chanLog = nil
	cn.chanBytes = 0
	cn.stateWritten, cn.chanQueued, cn.chanWritten, cn.acked = false, false, false, false
	cn.precommitted = false
	cn.appGate = sim.NewGate(cn.n.M.Eng)
	cn.tokenGate = sim.NewGate(cn.n.M.Eng)
	cn.syncSpan = cn.s.m.Obs.Start(cn.n.ID, obs.TidProto, "ckpt.sync").WithArg("round", int64(round))
	if cn.s.v.Write == WriteMemStagger && cn.n.ID == 0 {
		cn.tokenGate.Open() // the ring starts at the coordinator's node
	}
	if cn.n.Snap != nil && (cn.n.AppProc == nil || cn.n.AppProc.Done()) {
		// The application already finished: checkpoint its final state
		// directly so the round can still commit.
		cn.takeTentative(nil, round)
		return
	}
	// Either the application is running or it has not been (re)launched yet
	// (recovery in progress); in both cases the action runs at its first
	// safe point.
	cn.n.PostAction(ckptAction{cn: cn, round: round, attempt: attempt})
}

// onAppExit completes the node's part of an in-flight round when its
// application finishes before reaching a safe point.
func (cn *coordNode) onAppExit() {
	if cn.n.Alive && cn.n.Snap != nil && cn.round != 0 && !cn.snapshotDone {
		cn.takeTentative(nil, cn.round)
	}
}

// ckptAction runs in the application process at its next safe point.
type ckptAction struct {
	cn      *coordNode
	round   int
	attempt int
}

// Run takes the local tentative checkpoint at the application's safe point.
func (a ckptAction) Run(p *sim.Proc, n *par.Node) {
	if a.cn.round != a.round || a.cn.attempt != a.attempt {
		// The round was torn down (crash or abort) before the app reached a
		// safe point; a retried attempt posts its own fresh action.
		return
	}
	a.cn.takeTentative(p, a.round)
}

// takeTentative performs the local checkpoint: state snapshot, channel-state
// capture, quarantine release, marker flood, then the variant's blocking
// behaviour. p is the application process, or nil when the application has
// already finished (its final state is checkpointed without blocking).
func (cn *coordNode) takeTentative(p *sim.Proc, round int) {
	n := cn.n
	s := cn.s
	attempt := cn.attempt
	cn.syncSpan.End() // reached the local safe point
	cn.syncSpan = obs.Span{}
	var start sim.Time
	var blockedSpan obs.Span
	if p != nil {
		start = p.Now()
		blockedSpan = s.m.Obs.Start(n.ID, obs.TidApp, "ckpt.blocked").WithArg("round", int64(round))
	}
	c := ckptCapture{index: round}
	cn.img.capture(n, &c)
	// The record's framing comes out of the process image's pad, so a
	// full-image slot file keeps the image's size wherever the pad holds it
	// (an incremental payload has no pad). An incremental round's capture
	// stays pending until the round commits (finishRound).
	c.pad = max(c.pad-framing(s.v, CkptFile{}), 0)
	stateBytes, prev, file := c.stateBytes(), c.prev, c.file(s.v)
	if s.v.MemBuffered() && p != nil {
		// Main-memory checkpointing: the application pays only for the copy.
		d := n.M.MemCopyTime(fileLen(file))
		msp := s.m.Obs.Start(n.ID, obs.TidApp, "ckpt.memcopy")
		p.Sleep(d)
		msp.End()
		s.stats.MemCopyTime += d
	}
	if cn.round != round || cn.attempt != attempt {
		// The attempt aborted during the memory copy; the abort already
		// released the quarantine and the application, so just discard.
		blockedSpan.End()
		return
	}
	cn.snapshotDone = true
	// Unconsumed messages already delivered are part of the channel state:
	// they were sent before their senders' markers.
	n.AppBox.ForEach(func(env *fabric.Envelope) {
		if m, ok := env.Payload.(*mp.Message); ok && m.Src != n.ID {
			cn.chanLog = append(cn.chanLog, m)
		}
	})
	// Post-marker messages held back during the window become visible now.
	for _, env := range cn.quarantine {
		n.AppBox.Put(env)
	}
	cn.quarantine = nil
	// Flood markers; FIFO channels guarantee they delimit pre- from
	// post-checkpoint traffic.
	for dst := range s.nodes {
		if dst == n.ID {
			continue
		}
		s.proto(1)
		n.Send(p, fabric.NodeID(dst), par.PortDaemon, msgMarker{Round: round, Attempt: attempt, From: n.ID}, sizeCtl)
	}
	cn.maybeFinishLogging()
	cn.n.Do(cn.writeStateJob(round, attempt, file, stateBytes, prev, cn.tokenGate, cn.appGate))
	if p == nil {
		return
	}
	if !s.v.MemBuffered() {
		cn.appGate.Wait(p) // opened on write completion (WriteToDurable) or commit (WriteToCommit)
	}
	blockedSpan.End()
	s.m.Obs.ObserveDur(n.ID, "ckpt.blocked_time", p.Now().Sub(start))
	s.stats.AppBlocked += p.Now().Sub(start)
}

// writeStateJob writes the buffered state durably; in NBMS it first waits
// for the staggering token and passes it on afterwards. The gates are
// captured at job creation: an abort replaces them, and abortLocal opens the
// old ones so a parked job unblocks, notices the attempt changed, and falls
// through. A write failure that survives the retry budget nacks the
// coordinator, which aborts the round.
func (cn *coordNode) writeStateJob(round, attempt int, file [][]byte, stateBytes, prev int, tokenGate, appGate *sim.Gate) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		s := cn.s
		if s.v.Write == WriteMemStagger {
			tsp := s.m.Obs.Start(cn.n.ID, obs.TidDaemon, "ckpt.token_wait").WithArg("round", int64(round))
			tokenGate.Wait(p)
			tsp.End()
		}
		if cn.round != round || cn.attempt != attempt {
			return // aborted while queued or waiting for the token
		}
		wsp := s.m.Obs.Start(cn.n.ID, obs.TidDaemon, "ckpt.disk_write").WithArg("round", int64(round))
		err := writeSegmented(p, cn.n, s.v.StatePath(cn.n.ID, round), file, true)
		wsp.End()
		if err != nil {
			if cn.round == round && cn.attempt == attempt {
				cn.nack(p, round, attempt)
			}
			return
		}
		if cn.round != round || cn.attempt != attempt {
			return // aborted during the write; the retry rewrites the slot
		}
		s.m.Obs.Add(cn.n.ID, "ckpt.state_bytes", int64(stateBytes))
		s.stats.StateBytes += int64(stateBytes)
		// The channel-log write may have completed first (its job is queued
		// before this one when every marker beat the snapshot): carry the
		// size it stashed, so the record is right in either completion order.
		s.pending = append(s.pending, Record{
			Rank: cn.n.ID, Index: round, At: p.Now(), StateBytes: stateBytes,
			ChanBytes: cn.chanBytes, Prev: prev,
		})
		cn.stateWritten = true
		if s.v.Write == WriteToDurable {
			appGate.Open()
		}
		if s.v.Write == WriteMemStagger {
			if next := cn.n.ID + 1; next < len(s.nodes) {
				s.proto(1)
				cn.n.Send(p, fabric.NodeID(next), par.PortDaemon, msgToken{Round: round, Attempt: attempt}, sizeCtl)
			}
		}
		cn.maybeAck(p, round)
	}
}

// maybeFinishLogging queues the channel-log write once the snapshot is taken
// and all markers have arrived (the log is final then).
func (cn *coordNode) maybeFinishLogging() {
	if !cn.snapshotDone || cn.markersLeft > 0 || cn.chanQueued {
		return
	}
	cn.chanQueued = true
	round, attempt := cn.round, cn.attempt
	logCopy := cn.chanLog
	if len(logCopy) == 0 {
		// An empty channel: delete any stale log left in this slot by round
		// round-2 (recovery treats a missing log file as empty). The delete
		// must succeed — a stale log in the slot would replay round-2's
		// channel messages on recovery — so a persistent failure nacks too.
		cn.n.Do(func(p *sim.Proc) {
			if cn.round != round || cn.attempt != attempt {
				return
			}
			reply := cn.n.StorageCall(p, storage.Request{Op: storage.OpDelete, Path: cn.s.v.ChanPath(cn.n.ID, round)})
			if cn.round != round || cn.attempt != attempt {
				return
			}
			if reply.Err != nil {
				cn.nack(p, round, attempt)
				return
			}
			// Only now may the round ack: acking while the delete is still in
			// flight would let the commit point precede it, and a crash in
			// that window replays the stale log on recovery.
			cn.chanWritten = true
			cn.maybeAck(p, round)
		})
		return
	}
	cn.n.Do(func(p *sim.Proc) {
		if cn.round != round || cn.attempt != attempt {
			return
		}
		data := encodeChanLog(logCopy)
		wsp := cn.s.m.Obs.Start(cn.n.ID, obs.TidDaemon, "ckpt.chan_write").WithArg("round", int64(round))
		reply := cn.n.StorageCall(p, storage.Request{
			Op: storage.OpWrite, Path: cn.s.v.ChanPath(cn.n.ID, round),
			Data: data, Durable: true,
		})
		wsp.End()
		if cn.round != round || cn.attempt != attempt {
			return
		}
		if reply.Err != nil {
			cn.nack(p, round, attempt)
			return
		}
		cn.s.stats.ChanBytes += int64(len(data))
		// Either the state write already appended this rank's pending record
		// (fix it up) or it has not run yet (stash the size for it to pick
		// up); which happens first depends on marker-versus-snapshot timing.
		cn.chanBytes = len(data)
		for i := range cn.s.pending {
			if cn.s.pending[i].Rank == cn.n.ID && cn.s.pending[i].Index == round {
				cn.s.pending[i].ChanBytes = len(data)
			}
		}
		cn.chanWritten = true
		cn.maybeAck(p, round)
	})
}

// nack reports a persistent durable-write failure to the acting coordinator.
func (cn *coordNode) nack(p *sim.Proc, round, attempt int) {
	cn.s.m.Obs.Add(cn.n.ID, "faults.ckpt_write_failed", 1)
	cn.s.proto(1)
	cn.n.Send(p, fabric.NodeID(cn.coordRank), par.PortDaemon, msgNack{Round: round, Attempt: attempt}, sizeCtl)
}

func (cn *coordNode) maybeAck(p *sim.Proc, round int) {
	if !cn.stateWritten || !cn.chanWritten || cn.acked {
		return
	}
	cn.acked = true
	cn.s.proto(1)
	cn.n.Send(p, fabric.NodeID(cn.coordRank), par.PortDaemon, msgAck{Round: round, Attempt: cn.attempt, From: cn.n.ID}, sizeCtl)
}
