package rdg

import (
	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/storage"
)

// GarbageCollector periodically reclaims obsolete independent checkpoints:
// it computes the current recovery line from the dependency metadata and
// deletes every checkpoint that can never appear on any future line
// (Wang et al.'s checkpoint space reclamation, which the paper cites in §4
// when noting that even with garbage collection "several checkpoints have
// to be kept in stable storage").
//
// The collector runs as a centralized service, as in the literature: it
// reads the scheme's committed-checkpoint records, runs the
// rollback-dependency analysis, and enqueues the deletions on each owner
// node's checkpointer daemon.
type GarbageCollector struct {
	m   *par.Machine
	sch ckpt.Scheme
	ivl sim.Duration

	deleted  map[CheckpointID]bool
	Reclaims int   // checkpoints deleted so far
	Freed    int64 // bytes reclaimed
	stopped  bool
}

// AttachGC starts a garbage collector for an independent scheme, scanning
// every interval. It panics for coordinated schemes, which reclaim space by
// construction (slot double-buffering).
func AttachGC(m *par.Machine, sch ckpt.Scheme, interval sim.Duration) *GarbageCollector {
	if sch.Variant().Coordinated() {
		panic("rdg: AttachGC applies to independent schemes")
	}
	if sch.Variant().Incremental() {
		// A reclaimed checkpoint may be the base (or an interior delta) of a
		// live chain; line-based reclamation would have to keep every chain
		// member a retained checkpoint resolves through.
		panic("rdg: AttachGC cannot reclaim incremental schemes: delta chains make line-based reclamation unsafe")
	}
	gc := &GarbageCollector{m: m, sch: sch, ivl: interval, deleted: map[CheckpointID]bool{}}
	m.OnAllAppsDone(func() { gc.stopped = true })
	m.Eng.After(interval, gc.scan)
	return gc
}

func (gc *GarbageCollector) scan() {
	if gc.stopped {
		return
	}
	recs := gc.sch.Records()
	g := FromRecords(gc.m.NumNodes(), recs)
	line := g.RecoveryLine()
	garbage := g.Garbage(line)
	// The line computation itself consumes no virtual time, so it shows up
	// as an instant on the coordinator track rather than a span.
	gc.m.Obs.InstantArg(0, obs.TidCoord, "recover.line", "garbage", int64(len(garbage)))
	for _, id := range garbage {
		if gc.deleted[id] {
			continue
		}
		gc.deleted[id] = true
		id := id
		size := recordSize(recs, id)
		gc.sch.EnqueueJob(id.Rank, func(p *sim.Proc) {
			sp := gc.m.Obs.Start(id.Rank, obs.TidDaemon, "rdg.gc_delete").WithArg("index", int64(id.Index))
			gc.m.Nodes[id.Rank].StorageCall(p, storage.Request{
				Op: storage.OpDelete, Path: gc.sch.Variant().StatePath(id.Rank, id.Index),
			})
			sp.End()
			gc.Reclaims++
			gc.Freed += size
			gc.m.Obs.Add(id.Rank, "rdg.reclaimed_bytes", size)
		})
	}
	gc.m.Eng.After(gc.ivl, gc.scan)
}

func recordSize(recs []ckpt.Record, id CheckpointID) int64 {
	for _, r := range recs {
		if r.Rank == id.Rank && r.Index == id.Index {
			return int64(r.StateBytes)
		}
	}
	return 0
}
