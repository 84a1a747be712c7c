package ckpt

import (
	"repro/internal/fabric"
	"repro/internal/mp"
	"repro/internal/par"
	"repro/internal/sim"
)

// logEntry is one logged outgoing message in a sender's volatile log.
type logEntry struct {
	dst int
	msg *mp.Message
}

// logSend records an outgoing application message in the volatile log.
func (tn *timerNode) logSend(dst int, payload any) {
	msg := payload.(*mp.Message)
	tn.log = append(tn.log, logEntry{dst: dst, msg: msg})
	tn.logBytes += int64(len(msg.Data))
	if tn.logBytes > tn.s.stats.LogBytesPeak {
		tn.s.stats.LogBytesPeak = tn.logBytes
	}
}

// hook handles log-truncation notices from checkpointed receivers.
func (tn *timerNode) hook(env *fabric.Envelope) bool {
	tr, ok := env.Payload.(msgLogTrunc)
	if !ok {
		return false
	}
	kept := tn.log[:0]
	for _, le := range tn.log {
		if le.dst == tr.From && le.msg.SSN <= tr.UpTo {
			tn.logBytes -= int64(len(le.msg.Data))
			continue
		}
		kept = append(kept, le)
	}
	tn.log = kept
	return true
}

// resend re-transmits all logged messages to a recovering node with
// sequence numbers beyond what its restored checkpoint had consumed.
func (tn *timerNode) resend(p *sim.Proc, to int, afterSSN uint64) int {
	count := 0
	for _, le := range tn.log {
		if le.dst == to && le.msg.SSN > afterSSN {
			tn.n.Send(p, fabric.NodeID(to), par.PortApp, le.msg, len(le.msg.Data))
			count++
		}
	}
	return count
}

// NodeRecoveryReport describes one single-node recovery under Indep_Log.
type NodeRecoveryReport struct {
	Index      int // checkpoint the node restored (0 = initial state)
	StateBytes int
	Resent     int // messages retransmitted from survivors' logs
	Done       *sim.Gate
}

// RecoverNode restarts a single failed node under independent checkpointing
// with sender-based message logging. Only the failed process rolls back —
// to its own latest durable checkpoint; survivors retransmit the logged
// messages it had not yet consumed at that checkpoint, duplicate suppression
// absorbs the messages the recovering process re-sends during replay, and
// nobody else loses any work. This is the recovery model the paper's §1
// points to when it notes that message logging removes the domino effect of
// independent checkpointing.
//
// It must be called in engine context after Machine.CrashNode(rank), with
// the same scheme and world the run started with. The application must
// consume messages from each peer in FIFO order (piecewise determinism),
// which all the bundled benchmarks do.
func RecoverNode(m *par.Machine, w *mp.World, sch Scheme, rank int, factory func(int) mp.Program) *NodeRecoveryReport {
	s, ok := sch.(*localTimers)
	if !ok || !s.v.SenderLog {
		panic("ckpt: RecoverNode requires an Indep_Log scheme")
	}
	rep := &NodeRecoveryReport{Done: sim.NewGate(m.Eng)}
	node := m.Nodes[rank]
	node.Restart()
	s.attachNode(rank)
	w.ResetCreditsFor(rank)

	in := s.nodes[rank]
	in.busy = false
	in.deps = make(map[Dep]struct{})
	in.log = nil // the failed node's own volatile log died with it
	in.logBytes = 0
	in.img.reset() // so did its held image: the next capture is lent whole

	// Latest durable checkpoint of this rank, from the scheme's records.
	latest := 0
	for _, r := range s.records {
		if r.Rank == rank && r.Index > latest {
			latest = r.Index
		}
	}
	rep.Index = latest
	in.index = latest

	node.Do(func(p *sim.Proc) {
		prog := factory(rank)
		consumed := make([]uint64, m.NumNodes()) // no checkpoint yet: restart from scratch
		var lib []byte
		if latest > 0 {
			state, f, _ := ReadCheckpoint(p, node, s.v, latest)
			rep.StateBytes = len(state)
			par.RestoreAt(prog, latest, state)
			consumed, lib = mp.ConsumedFromLibState(f.Lib), f.Lib
		}
		env := w.Launch(rank, prog)
		if latest > 0 {
			env.Restore(lib)
		}
		// Survivors retransmit everything the restored state has not
		// consumed; duplicates of what it has are impossible by construction
		// (resends start after the checkpoint's consumption frontier).
		remaining := 0
		for peer := range s.nodes {
			if peer == rank {
				continue
			}
			remaining++
			peer := peer
			after := consumed[peer]
			m.Nodes[peer].Do(func(p *sim.Proc) {
				rep.Resent += s.nodes[peer].resend(p, rank, after)
				remaining--
				if remaining == 0 {
					rep.Done.Open()
				}
			})
		}
		// Resume the node's own checkpointing cadence.
		if s.opt.Interval > 0 && !s.stopped {
			m.Eng.After(s.opt.Interval, in.timerFire)
		}
	})
	return rep
}
