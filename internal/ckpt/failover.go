package ckpt

// Coordinator failover for the fault-tolerant coordinated variants
// (Coord_NB_FT, Coord_NB_FT_INC): a 3PC-style pre-commit phase plus a
// heartbeat/timeout coordinator election, so a checkpoint round interrupted
// by the coordinator's death completes under a successor or aborts cleanly —
// participants never block on a dead coordinator and stable storage is never
// left in a state recovery could misread.
//
// The protocol argument, by crash window of the coordinator:
//
//   - Before pre-commit ("round", "acks"): no participant holds a
//     pre-commit, and the round record is only ever written after EVERY
//     pre-ack, so the record provably does not exist. The successor aborts;
//     participants discard round state exactly as on a coordinator-initiated
//     abort, and recovery still reads the previous round's record.
//
//   - After pre-commit ("precommit", "meta"): pre-commit is broadcast only
//     after every ack, so some survivor holding one proves all n ranks'
//     state and channel files of the round are durable. The successor
//     (re)writes the round record — idempotent if the failed coordinator
//     already got it durable — and broadcasts the commit. Either way the
//     durable outcome equals a crash-free commit of the round.
//
//   - After the commit broadcast ("commit"): the round is over; the election
//     finds nothing in flight and only installs the successor's heartbeat.
//
// Election is deterministic under the repo's seeded-sim discipline: rank r
// suspects after r*suspicionTimeout of heartbeat silence, so the lowest
// surviving rank always announces first and its announcement resets every
// higher rank's silence clock. There is no wall-clock randomness anywhere.
//
// A successor only resolves the interrupted round; it never initiates new
// ones (see startRound): the failed coordinator's node cannot participate
// again until a full recovery restarts the machine, and the post-recovery
// incarnation starts with a fresh rank-0 coordinator.

import (
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Failover timing, in virtual time. Heartbeats come well inside the
// suspicion bound, so checkpoint-burst queueing cannot fake a death, and the
// vote window covers several control-message round trips.
const (
	heartbeatEvery = 250 * sim.Millisecond // the acting coordinator's heartbeat period
	// suspicionTimeout is the base heartbeat-silence bound: rank r suspects
	// the coordinator after r*suspicionTimeout of silence, so suspicion is
	// staggered in rank order and the lowest surviving rank always wins the
	// election (its takeover announcement resets every higher rank's clock).
	suspicionTimeout = 1500 * sim.Millisecond
	// electWait is how long an elected successor collects election acks
	// before resolving the in-flight round.
	electWait = 500 * sim.Millisecond
)

// FailoverSettle bounds how long the fault-tolerant variants take to resolve
// a round after the coordinator dies: rank 1's suspicion deadline, the
// election's vote window, and slack for the successor's round-record write.
// A driver that kills the coordinator and then restarts the whole machine
// waits this long in between, so the restart sees whatever the successor
// decided.
const FailoverSettle = suspicionTimeout + electWait + 2*sim.Second

// armFailover starts the coordinator-liveness machinery: the rank-0
// heartbeat and every other rank's silence monitor. All timers are engine
// events guarded by the scheme's stopped flag and the machine epoch, so they
// quiesce when the workload finishes or the machine crashes wholesale —
// Machine.Shutdown has no extra goroutines to reap.
func (s *coordinated) armFailover() {
	s.armHeartbeat(0)
	for _, cn := range s.nodes {
		if cn.n.ID != 0 {
			cn.armMonitor()
		}
	}
}

// armHeartbeat runs the acting coordinator's periodic liveness broadcast.
// The tick chain dies when the workload finishes, the machine epoch changes
// (total crash; the recovered incarnation arms its own), the rank is deposed
// by a later election, or its node crashes.
func (s *coordinated) armHeartbeat(rank int) {
	epoch := s.m.Epoch
	node := s.nodes[rank].n
	var tick func()
	tick = func() {
		if s.stopped || s.m.Epoch != epoch || s.coordID != rank || !node.Alive {
			return
		}
		for i := range s.nodes {
			if i == rank {
				continue
			}
			s.proto(1)
			node.Send(nil, fabric.NodeID(i), par.PortDaemon, msgHeartbeat{From: rank}, sizeCtl)
		}
		s.m.Eng.After(heartbeatEvery, tick)
	}
	s.m.Eng.After(heartbeatEvery, tick)
}

// onHeartbeat records coordinator liveness; a beat from a newer coordinator
// (takeover announcement lost races aside) also redirects protocol traffic.
func (cn *coordNode) onHeartbeat(from int) {
	cn.lastBeat = cn.s.m.Eng.Now()
	cn.coordRank = from
}

// armMonitor measures heartbeat silence at this rank. The next check is
// always scheduled for the instant silence would reach the rank's deadline,
// so detection latency is exactly rank*suspicionTimeout after the last beat.
func (cn *coordNode) armMonitor() {
	s := cn.s
	epoch := s.m.Epoch
	deadline := suspicionTimeout * sim.Duration(cn.n.ID)
	cn.lastBeat = s.m.Eng.Now()
	var check func()
	check = func() {
		if s.stopped || s.m.Epoch != epoch || !cn.n.Alive || s.coordID == cn.n.ID {
			return
		}
		gap := s.m.Eng.Now().Sub(cn.lastBeat)
		if gap < deadline {
			s.m.Eng.After(deadline-gap, check)
			return
		}
		cn.startElection(check)
	}
	s.m.Eng.After(deadline, check)
}

// startElection makes this rank the acting coordinator: announce the
// takeover, collect the survivors' votes for electWait, then resolve the
// in-flight round. recheck re-arms the monitor when the suspicion turns out
// spurious (the coordinator is alive — mistimed constants, surfaced as a
// counter so tests can pin it at zero).
func (cn *coordNode) startElection(recheck func()) {
	s := cn.s
	if s.m.Nodes[s.coordID].Alive {
		s.m.Obs.Add(cn.n.ID, "ckpt.spurious_suspicion", 1)
		cn.lastBeat = s.m.Eng.Now()
		s.m.Eng.After(suspicionTimeout*sim.Duration(cn.n.ID), recheck)
		return
	}
	s.stats.Elections++
	s.m.Obs.Add(cn.n.ID, "ckpt.elections", 1)
	s.m.Obs.InstantArg(cn.n.ID, obs.TidCoord, "ckpt.elect", "rank", int64(cn.n.ID))
	s.coordID = cn.n.ID
	cn.coordRank = cn.n.ID
	cn.lastBeat = s.m.Eng.Now()
	// The elector votes for itself directly; everyone else answers the
	// announcement with their round state.
	s.electAcks = map[int]msgElectAck{cn.n.ID: {
		From: cn.n.ID, Round: cn.round, Attempt: cn.attempt,
		Acked: cn.acked, Precommitted: cn.precommitted,
	}}
	for i := range s.nodes {
		if i == cn.n.ID {
			continue
		}
		s.proto(1)
		cn.n.Send(nil, fabric.NodeID(i), par.PortDaemon, msgElect{From: cn.n.ID}, sizeCtl)
	}
	rank := cn.n.ID
	s.m.Eng.After(electWait, func() { s.resolveTakeover(rank) })
	s.armHeartbeat(rank)
}

// onElect redirects this rank's protocol traffic to the announced successor
// and answers with the vote the successor's termination rule needs.
func (cn *coordNode) onElect(from int) {
	if from == cn.n.ID {
		return
	}
	cn.coordRank = from
	cn.lastBeat = cn.s.m.Eng.Now()
	cn.s.proto(1)
	cn.n.Send(nil, fabric.NodeID(from), par.PortDaemon, msgElectAck{
		From: cn.n.ID, Round: cn.round, Attempt: cn.attempt,
		Acked: cn.acked, Precommitted: cn.precommitted,
	}, sizeCtl)
}

// onElectAck collects one survivor's vote during an open election.
func (s *coordinated) onElectAck(v msgElectAck) {
	if s.electAcks == nil {
		return // no election open: a straggler past the resolution
	}
	if _, dup := s.electAcks[v.From]; !dup {
		s.electAcks[v.From] = v
	}
}

// resolveTakeover applies the non-blocking termination rule to the collected
// votes: any survivor holding a pre-commit proves every rank's round files
// are durable, so the successor completes the round; no pre-commit anywhere
// proves the round record was never written, so the successor aborts it.
func (s *coordinated) resolveTakeover(rank int) {
	epochAlive := s.coordID == rank && s.m.Nodes[rank].Alive
	votes := s.electAcks
	s.electAcks = nil
	if !epochAlive || votes == nil {
		return // deposed, crashed wholesale, or already resolved
	}
	round, attempt, anyPre := 0, 0, false
	for _, v := range votes {
		if v.Round > round || (v.Round == round && v.Attempt > attempt) {
			round, attempt = v.Round, v.Attempt
		}
		if v.Precommitted {
			anyPre = true
		}
	}
	s.m.Obs.InstantArg(rank, obs.TidCoord, "ckpt.takeover", "round", int64(round))
	if round == 0 || round <= s.committedRound {
		return // nothing in flight: the takeover only installs the heartbeat
	}
	if anyPre {
		s.writeMetaJob(rank, round, attempt, true)
		return
	}
	s.failoverAbort(rank, round, attempt)
}

// writeMetaJob durably writes the round record — the commit point — from the
// acting coordinator's daemon and commits the round when it lands; both
// protocols' coordinators, and a failover successor, write it here. The
// record always lives on rank 0's shard, so recovery reads it from the same
// place regardless of which coordinator wrote it; a successor's rewrite of a
// record the failed coordinator already landed is idempotent. adopted marks
// a takeover completion (a successor finishing the failed coordinator's
// round), whose failure path must not schedule a retry initiation.
func (s *coordinated) writeMetaJob(coordID, round, attempt int, adopted bool) {
	cn := s.nodes[coordID]
	cn.jobs.Put(func(p *sim.Proc) {
		w := newMetaRecord(round)
		reply := cn.n.StorageCallRetryOn(p, s.m.ShardOf(0), storage.Request{
			Op: storage.OpWrite, Path: CoordMetaPath, Data: w, Durable: true,
		})
		if attempt != s.attempt || s.round == s.committedRound {
			return // the attempt aborted while the meta write was in flight
		}
		if reply.Err != nil {
			if adopted {
				s.failoverAbort(coordID, round, attempt)
			} else {
				s.abortRound()
			}
			return
		}
		s.m.NotePhase("meta", round)
		if !cn.n.Alive && s.v.ThreePhase {
			// Crashed between the commit point and the commit broadcast: the
			// round IS durable, and some participant holds its pre-commit, so
			// the next election — or the recovery driver — finishes it. The
			// plain protocol has no election: the durable record is the
			// commit, booked here even though no commit notice goes out.
			return
		}
		if adopted {
			s.stats.RoundsAdopted++
			s.m.Obs.Add(coordID, "ckpt.rounds_adopted", 1)
		}
		s.commitRound(round, attempt)
	})
}

// preCommitRound broadcasts the third phase after every ack arrived: each
// participant records the pre-commit (its vote for a future election) and
// confirms; the round record is written only once every confirmation is in.
func (s *coordinated) preCommitRound(round, attempt int) {
	s.preAcks = make(map[int]bool)
	s.broadcast(s.coordID, msgPreCommit{Round: round, Attempt: attempt})
	s.m.NotePhase("precommit", round)
}

// onPreAck runs at the acting coordinator as pre-commit confirmations
// arrive; the last one triggers the durable round-record write.
func (s *coordinated) onPreAck(round, attempt, from int) {
	if round != s.round || attempt != s.attempt || s.round == s.committedRound ||
		s.preAcks == nil || s.preAcks[from] {
		return
	}
	s.preAcks[from] = true
	if len(s.preAcks) < len(s.nodes) {
		return
	}
	s.writeMetaJob(s.coordID, round, attempt, false)
}

// failoverAbort cleanly abandons the round a takeover could not complete:
// participants discard their tentative state exactly as on a coordinated
// abort, and — unlike abortRound — no retry is scheduled, because the failed
// coordinator's node cannot ack a retried round until a full recovery
// restarts it. Tentative slot files of the aborted round are residue in the
// non-committed slot, exactly as after an ordinary abort; recovery only ever
// reads the slot the durable round record names.
func (s *coordinated) failoverAbort(rank, round, attempt int) {
	if round != s.round || s.round == s.committedRound {
		return // already resolved by the time the election concluded
	}
	s.stats.RoundsAborted++
	s.m.Obs.Add(0, "ckpt.rounds_aborted", 1)
	s.m.Obs.InstantArg(rank, obs.TidCoord, "ckpt.failover_abort", "round", int64(round))
	s.roundSpan.End()
	s.roundSpan = obs.Span{}
	s.pending = nil
	s.commitBusy = false
	s.preAcks = nil
	s.round = s.committedRound
	s.broadcast(rank, msgAbort{Round: round, Attempt: attempt})
}
