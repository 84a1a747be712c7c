package check

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/mp"
	"repro/internal/par"
	"repro/internal/rdg"
	"repro/internal/sim"
	"repro/internal/storage"
)

// recoverCoordinated restarts a crashed machine through the coordinated
// protocol's own recovery manager (ckpt.Recover) and re-arms the oracle on
// the new incarnation. Returns the recovered round.
func (o *Oracle) recoverCoordinated(m *par.Machine, v ckpt.Variant, opt ckpt.Options, h *Harness, a *audit, factory func(int) mp.Program) int {
	round := 0
	if meta, ok := m.StoreFor(0).Peek(ckpt.CoordMetaPath, nil); ok {
		if r, err := ckpt.ParseMetaRecord(meta); err == nil {
			round = r
		}
	}
	if round == 0 {
		// Nothing ever committed: every rank restarts from its initial
		// state, no wrapped Restore runs, so the ledger rewinds here.
		h.reset()
	}
	a.onCoordRecovery()
	w, rep := ckpt.Recover(m, v, opt, factory)
	h.Attach(w)
	// The new incarnation's scheme is created inside the recovery
	// orchestrator's process, so it does not exist yet; re-arm the oracle
	// when recovery completes. No round can commit earlier: a commit needs
	// every rank's ack, and the daemons work off their restore jobs — whose
	// last one opens the gate — before any checkpoint request.
	m.Eng.Spawn("check-arm", func(p *sim.Proc) {
		rep.Done.Wait(p)
		rep.Scheme.SetCommitHook(a.onCommit)
	})
	return round
}

// recoverUncoordinated is the oracle's recovery driver for the independent
// and communication-induced families, which the repository previously only
// analyzed (package rdg) but never executed: compute the maximal consistent
// recovery line from the committed records, reclaim durable checkpoints
// above it, restore every rank from its line checkpoint, replay the
// in-transit window of every channel from the send ledger, and relaunch with
// the scheme's index clocks continuing past the line.
//
// The ledger replay stands in for the reliable transport a real system needs
// during uncoordinated recovery (senders re-transmitting from logs or being
// rolled back to before the send). Its correctness is exactly the property
// under test: a consistent line guarantees every channel's restored consume
// count is at most its restored send count, so the window [consumed, sent)
// is well-formed and re-executing from the line re-creates every later send.
func (o *Oracle) recoverUncoordinated(m *par.Machine, v ckpt.Variant, opt ckpt.Options, h *Harness, a *audit, factory func(int) mp.Program) ([]int, []ckpt.Record) {
	n := m.NumNodes()
	for _, nd := range m.Nodes {
		nd.Restart()
	}
	w := mp.NewWorld(m)
	h.Attach(w)

	// Snapshot the ledger before onRecovery prunes it down to the line: the
	// pre-prune view is what the line was computed from, and what callers
	// need to audit that computation independently.
	crashRecords := append([]ckpt.Record(nil), a.committed...)
	g := rdg.FromRecords(n, a.committed)
	line := g.RecoveryLine()
	if orph := g.OrphanEdges(line); len(orph) > 0 {
		a.violatef("recover.line-consistent", "recovery line %v keeps orphan edges %v", line, orph)
	}
	a.onRecovery(line)

	opt.StartIndices = line
	sch := ckpt.New(v, opt)
	sch.Attach(m)
	sch.SetCommitHook(a.onCommit)

	m.Eng.Spawn("check-recover", func(p *sim.Proc) {
		node0 := m.Nodes[0]
		// 1. Reclaim durable checkpoints above the line, on every shard.
		// Enumerating storage instead of the records also catches a write the
		// crash pre-empted between durability and bookkeeping: complete on
		// disk, in no record — left behind, its index would be reused and
		// corrupt the file. Node 0 drives the sweep, so deletes on other
		// ranks' shards address those shards explicitly.
		for si, st := range m.Stores {
			for _, path := range st.DurablePaths() {
				rank, idx, ok := v.ParsePath(path)
				if ok && idx > line[rank] {
					if reply := node0.StorageCallRetryOn(p, si, storage.Request{Op: storage.OpDelete, Path: path}); reply.Err != nil {
						a.violatef("recover.reclaim", "deleting stale %s: %v", path, reply.Err)
					}
				}
			}
		}
		// 2. Read the line checkpoints back from stable storage. An incremental
		// checkpoint is a base+delta chain; every chain pointer names a
		// strictly smaller index, so the whole chain sits at or below the line
		// and step 1's reclamation can never have deleted a link of it.
		states := make([][]byte, n)
		libs := make([][]byte, n)
		for rank := 0; rank < n; rank++ {
			if line[rank] == 0 {
				continue
			}
			img, head, err := new(ckpt.Replayer).ReconstructCkpt(v, rank, line[rank], func(path string, _ []byte) ([]byte, error) {
				reply := m.Nodes[rank].StorageCallRetry(p, storage.Request{Op: storage.OpRead, Path: path})
				return reply.Data, reply.Err
			})
			if err != nil {
				panic(fmt.Sprintf("check: recovery: %v", err))
			}
			states[rank], libs[rank] = img, head.Lib
		}
		// 3. Rebuild every rank; the indexed restore rewinds both the
		// application state and the rank's ledger rows to the line
		// (initial-state ranks rewind to zero explicitly — there is no
		// checkpoint to do it).
		progs := make([]mp.Program, n)
		for rank := 0; rank < n; rank++ {
			progs[rank] = factory(rank)
			if line[rank] > 0 {
				par.RestoreAt(progs[rank], line[rank], states[rank])
			} else {
				h.truncateRank(rank, h.zero, h.zero)
			}
		}
		// 4. Replay the in-transit window of every ordered channel: messages
		// the restored sender has sent but the restored receiver has not
		// consumed. The original piggybacks ride along, so the induced
		// forcing rule reacts to a replayed message exactly as the original.
		inTransit := make([][]*mp.Message, n) // by receiver, senders in rank order
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				sent := len(h.sends[src][dst])
				consumed := len(h.delivered[dst][src])
				if !a.assert(consumed <= sent, "recover.no-orphan",
					"line %v: channel %d->%d restored consumer is %d message(s) ahead of restored sender",
					line, src, dst, consumed-sent) {
					continue
				}
				for _, mc := range h.sends[src][dst][consumed:sent] {
					inTransit[dst] = append(inTransit[dst], &mp.Message{Src: src, Tag: mc.Tag, Data: mc.Data, Meta: mc.Meta})
				}
			}
		}
		injected := 0
		for dst, msgs := range inTransit {
			ckpt.RestoreInTransit(m, dst, msgs)
			injected += len(msgs)
		}
		m.Obs.Add(0, "check.replayed_msgs", int64(injected))
		// 5. Relaunch.
		for rank := 0; rank < n; rank++ {
			env := w.Launch(rank, progs[rank])
			if line[rank] > 0 && len(libs[rank]) > 0 {
				env.RestoreLibState(libs[rank])
			}
		}
	})
	return line, crashRecords
}
