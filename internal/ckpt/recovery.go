package ckpt

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/storage"
)

// RecoveryReport describes one recovery from total failure.
type RecoveryReport struct {
	StartedAt   sim.Time
	CompletedAt sim.Time // when the last application process was relaunched
	Round       int      // recovered round; 0 means restart from the beginning
	BytesRead   int64    // checkpoint files and channel logs read back
	ChanMsgs    int      // in-transit messages restored from channel logs
	Done        *sim.Gate
}

// Recover restarts a machine after CrashAll from the last committed
// coordinated global checkpoint. It must be called in engine context (e.g.
// from an event scheduled at the repair time). All nodes are restarted, a
// fresh scheme of the given variant is built from opt and attached (its round
// numbering continuing after the recovered round, opt.CommitHook armed from
// the start), each rank's program is rebuilt via
// factory, restored from stable storage, given back the logged in-transit
// messages of its channels, and relaunched. The coordinated protocol's
// recovery is exactly the paper's "simple and quite predictable" rollback:
// every process returns to its last committed checkpoint.
//
// If no round ever committed, programs restart from their initial state.
func Recover(m *par.Machine, v Variant, opt Options, factory func(rank int) mp.Program) (*mp.World, *RecoveryReport) {
	if !v.Coordinated() {
		panic("ckpt: Recover applies to coordinated schemes; independent recovery restores the recovery line rdg computes (check.recoverUncoordinated)")
	}
	for _, n := range m.Nodes {
		n.Restart()
	}
	w := mp.NewWorld(m)
	rep := &RecoveryReport{StartedAt: m.Eng.Now(), Done: sim.NewGate(m.Eng)}

	m.Eng.Spawn("recovery", func(p *sim.Proc) {
		total := m.Obs.Start(0, obs.TidCoord, "recover.total")
		// The orchestrator finds the last committed round with a storage
		// call of its own from the coordinator's node: any process may call.
		node0 := m.Nodes[0]
		round := 0
		msp := m.Obs.Start(0, obs.TidCoord, "recover.read_meta")
		reply := node0.StorageCall(p, storage.Request{Op: storage.OpRead, Path: CoordMetaPath})
		msp.End()
		if reply.Err == nil {
			r, err := ParseMetaRecord(reply.Data)
			if err != nil {
				panic(err)
			}
			round = r
		} else if !errors.Is(reply.Err, storage.ErrNotFound) {
			// A missing meta record means no round ever committed; anything
			// else (the server still unavailable through the retry budget)
			// must not be mistaken for that — it would silently discard every
			// committed checkpoint.
			panic(fmt.Sprintf("ckpt: recovery: cannot read commit record: %v", reply.Err))
		}
		rep.Round = round
		opt.StartRound = round
		New(v, opt).Attach(m)

		remaining := m.NumNodes()
		for rank, node := range m.Nodes {
			node.Do(func(p *sim.Proc) {
				rsp := m.Obs.Start(rank, obs.TidDaemon, "recover.restore").WithArg("round", int64(round))
				prog := factory(rank)
				if round > 0 {
					state, read := ReadCheckpoint(p, node, v, round)
					rep.BytesRead += int64(read)
					par.RestoreAt(prog, round, state)
					var msgs []*mp.Message
					cl := node.StorageCall(p, storage.Request{Op: storage.OpRead, Path: v.ChanPath(rank, round)})
					if cl.Err == nil {
						rep.BytesRead += int64(len(cl.Data))
						var err error
						if msgs, err = DecodeChanLog(cl.Data); err != nil {
							panic(err)
						}
					}
					// A missing channel log means the channel was empty.
					RestoreInTransit(m, rank, msgs)
					rep.ChanMsgs += len(msgs)
				}
				rsp.End()
				w.Launch(rank, prog)
				remaining--
				if remaining == 0 {
					rep.CompletedAt = p.Now()
					total.End()
					rep.Done.Open()
				}
			})
		}
	})
	return w, rep
}

// ReadCheckpoint reads node's checkpoint index back from stable storage, as
// the variant laid it out, through the node's retrying storage client on
// behalf of p: every recovery driver reads a checkpoint here. It returns the
// image a restore hands the program and the bytes of every file fetched. The checkpoint must be
// committed, so one that cannot be read back is a broken protocol, and
// ReadCheckpoint panics.
func ReadCheckpoint(p *sim.Proc, node *par.Node, v Variant, index int) ([]byte, int) {
	read := 0
	img, err := new(Replayer).ReconstructCkpt(v, node.ID, index, func(path string, _ []byte) ([]byte, error) {
		reply := node.StorageCall(p, storage.Request{Op: storage.OpRead, Path: path})
		read += len(reply.Data)
		return reply.Data, reply.Err
	})
	if err != nil {
		panic(fmt.Sprintf("ckpt: recovery: %v", err))
	}
	return img, read
}

// RestoreInTransit hands rank's logged in-transit messages back to its
// application in the order given, ahead of anything delivered to the rank
// since its restart: work in flight at the capture is re-driven before
// anything new. Both recovery drivers restore channel state through it. The
// ordering matters because ranks restore concurrently — a peer relaunched
// from a small checkpoint can reach this rank's mailbox before the rank has
// read its own log back, and a logged message queued behind that arrival
// would be consumed out of its channel's order.
func RestoreInTransit(m *par.Machine, rank int, msgs []*mp.Message) {
	envs := make([]*fabric.Envelope, len(msgs))
	for i, msg := range msgs {
		envs[i] = &fabric.Envelope{
			Src: fabric.NodeID(msg.Src), Dst: fabric.NodeID(rank),
			Port: par.PortApp, Inc: m.Epoch, Payload: msg,
		}
	}
	m.Nodes[rank].AppBox.PutFront(envs)
}
