// Package mp is the application programming interface of the run-time
// library — the equivalent of the paper's CHK-LIB: reliable FIFO
// point-to-point messaging plus MPI-like collectives, with checkpointing
// integrated at "safe points".
//
// Every library call is a safe point: pending checkpoint actions posted by
// the node's checkpointer daemon are executed there, in the application
// process's context. Long computations are sliced so a pending checkpoint
// is picked up within one slice, modelling the checkpointer thread's
// ability to interrupt the application.
package mp

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/par"
	"repro/internal/sim"
)

// Any is the wildcard for Recv's src and tag arguments. A wildcard tag
// matches application tags (>= 0) only, never the library's internal
// collective tags.
const Any = -1

// Internal collective tags live in negative space so they can never collide
// with application tags.
const (
	tagBarrier = -(100 + iota)
	tagBarrierRelease
	tagBcast
	tagReduce
	tagGather
)

// Message is one application-level message.
type Message struct {
	Src, Tag int
	Data     []byte
	// Meta carries the sender's piggyback vector: the checkpoint-interval
	// index of independent checkpointing and the checkpoint index of
	// communication-induced checkpointing, each in its own slot.
	Meta par.Piggyback
	// SSN is the per-(sender,receiver) send sequence number, assigned when
	// sender-based message logging is active (zero otherwise). Receivers use
	// it to suppress the duplicates a recovering sender re-transmits.
	SSN uint64
	// Wire is the reliable-transport sequence number per (sender,receiver)
	// pair, assigned only when the world's retransmit layer is armed for runs
	// over lossy links (zero otherwise — the unarmed wire format is
	// unchanged).
	Wire uint64
}

// Program is a distributed application: its Run method executes the rank's
// part of the computation, and the Snapshotter side exposes its state to the
// checkpointing layer. Run must be written to resume correctly from a
// restored state (all programs in internal/apps consult their state structs
// for loop positions).
type Program interface {
	Run(e *Env)
	par.Snapshotter
}

// World is a set of ranks, one per machine node, running Programs.
type World struct {
	M    *par.Machine
	Envs []*Env

	// Credit-based flow control: outstanding[s][d] counts application
	// messages sent from s to d and not yet consumed. A sender blocks once
	// the configured window fills, modelling the modest buffering of the
	// testbed's rendezvous-style transputer links; the receiver's consume
	// returns the credit.
	outstanding [][]int

	// rel is the ack/retransmit layer, armed by EnableRetransmit for runs
	// over lossy links; nil (the default) adds no messages and no cost.
	rel *reliable

	// OnSend and OnDeliver are observation hooks for the correctness oracle
	// (package check): OnSend sees every application-layer message right
	// before it enters the fabric (collective-internal traffic included —
	// filter on Tag >= 0 for application payloads); OnDeliver sees every
	// message the moment Recv hands it to the caller, after duplicate
	// suppression and the protocol consume hooks. Both run in the sending or
	// receiving process's context, must not block, and consume no virtual
	// time. nil — the default — is the zero-cost disarmed state: an
	// uninstrumented run takes the exact same code paths and produces the
	// exact same virtual schedule as before these hooks existed.
	OnSend    func(src, dst int, m *Message)
	OnDeliver func(rank int, m *Message)
}

// creditToken is the wakeup delivered to a sender's mailbox when a credit it
// may be waiting for becomes available; it carries no data.
type creditToken struct{}

// NewWorld creates a world spanning all nodes of m.
func NewWorld(m *par.Machine) *World {
	n := m.NumNodes()
	w := &World{M: m, Envs: make([]*Env, n)}
	w.outstanding = make([][]int, n)
	for i := range w.outstanding {
		w.outstanding[i] = make([]int, n)
	}
	return w
}

// acquireCredit blocks the sending rank until the s→d window has room, then
// takes one slot. While blocked the sender keeps servicing checkpoint
// actions (a blocked send is a safe point, like a blocked receive).
func (e *Env) acquireCredit(s, d int) {
	w := e.W
	win := w.M.Cfg.MsgWindow
	if win <= 0 || s == d {
		return
	}
	for w.outstanding[s][d] >= win {
		e.SafePoint()
		if w.outstanding[s][d] < win {
			break
		}
		e.node.AppBox.AwaitPut(e.P)
	}
	w.outstanding[s][d]++
}

// returnCredit releases one s→d slot after the receiver consumed a message,
// waking the sender if the window had been full.
func (w *World) returnCredit(s, d int) {
	win := w.M.Cfg.MsgWindow
	if win <= 0 || s == d {
		return
	}
	if w.outstanding[s][d] > 0 {
		w.outstanding[s][d]--
	}
	if w.outstanding[s][d] == win-1 {
		// The sender may be parked on its mailbox waiting for this credit.
		if sender := w.Envs[s]; sender != nil {
			sender.node.AppBox.Put(&fabric.Envelope{
				Src: fabric.NodeID(d), Dst: fabric.NodeID(s),
				Port: par.PortApp, Inc: w.M.Epoch, Payload: creditToken{},
			})
		}
	}
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.Envs) }

// Launch starts prog as the given rank. The returned Env is also stored in
// w.Envs. Restored state, if any, must be applied to prog before Launch;
// restored library state (sequence counters) via Env.Restore before
// the simulation resumes.
func (w *World) Launch(rank int, prog Program) *Env {
	node := w.M.Nodes[rank]
	n := w.Size()
	e := &Env{W: w, Rank: rank, node: node, prog: prog,
		ssnOut: make([]uint64, n), ssnIn: make([]uint64, n)}
	w.Envs[rank] = e
	node.Snap = prog
	node.Lib = e
	w.M.StartApp(rank, fmt.Sprintf("app%d", rank), func(p *sim.Proc) {
		e.P = p
		prog.Run(e)
	})
	return e
}

// Snapshot captures the message layer's per-rank state (sequence counters),
// stored alongside application state in checkpoints; Env implements
// par.Snapshotter for the node's Lib slot.
func (e *Env) Snapshot() []byte {
	w := codecWriter()
	w.U64s(e.ssnOut)
	w.U64s(e.ssnIn)
	return w.Bytes()
}

// Restore resets the message-layer state from a Snapshot.
func (e *Env) Restore(data []byte) {
	r := codecReader(data)
	e.ssnOut = getU64s(r)
	e.ssnIn = getU64s(r)
}

// LastConsumedSSN returns the last sequence number consumed from each rank
// (used by the recovery manager to ask survivors for retransmissions).
func (e *Env) LastConsumedSSN() []uint64 { return append([]uint64(nil), e.ssnIn...) }

// ConsumedFromLibState extracts the per-sender consumed sequence numbers
// from a library-state blob stored in a checkpoint.
func ConsumedFromLibState(lib []byte) []uint64 {
	r := codecReader(lib)
	getU64s(r) // ssnOut
	return getU64s(r)
}

// ResetCreditsFor clears the flow-control windows touching a restarted rank:
// everything previously outstanding to it was lost with its mailbox, and its
// own retransmissions travel outside the window.
func (w *World) ResetCreditsFor(rank int) {
	for i := range w.outstanding {
		w.outstanding[i][rank] = 0
		w.outstanding[rank][i] = 0
	}
}

// Env is one rank's handle on the library; all methods must be called from
// the rank's own application process.
type Env struct {
	W    *World
	Rank int
	P    *sim.Proc
	node *par.Node
	prog Program

	// MsgsSent / BytesSent count application-level traffic for statistics.
	MsgsSent  int64
	BytesSent int64

	// Sequence tracking for sender-based message logging: ssnOut[d] is the
	// last sequence number sent to rank d, ssnIn[s] the last consumed from
	// rank s. Only maintained while the node's LogSend hook is installed.
	ssnOut, ssnIn []uint64

	// f64Scratch is the rank's reusable decode target for reduction fan-ins:
	// each contribution is decoded into it, folded into the accumulator, and
	// dead before the next Recv, so one buffer serves every iteration.
	f64Scratch []float64
}

// Size returns the number of ranks in the world.
func (e *Env) Size() int { return e.W.Size() }

// Node returns the underlying machine node.
func (e *Env) Node() *par.Node { return e.node }

// SafePoint executes any pending checkpoint actions and drops stale credit
// tokens. All other library calls invoke it implicitly.
func (e *Env) SafePoint() {
	for {
		if _, ok := e.node.AppBox.TakeMatch(func(v *fabric.Envelope) bool {
			_, isToken := v.Payload.(creditToken)
			return isToken
		}); ok {
			continue
		}
		env, ok := e.node.AppBox.TakeMatch(func(v *fabric.Envelope) bool {
			_, isAction := v.Payload.(par.Action)
			return isAction
		})
		if !ok {
			return
		}
		env.Payload.(par.Action).Run(e.P, e.node)
	}
}

// Compute charges ops abstract operations of CPU time, sliced so pending
// checkpoints are serviced with bounded latency. CPU time stolen by the
// software router for forwarding traffic through this node while the
// computation runs extends it; debt accrued while the process was blocked
// is discarded (an idle CPU routes for free).
func (e *Env) Compute(ops float64) {
	e.SafePoint()
	remaining := e.W.M.ComputeTime(ops)
	slice := e.W.M.Cfg.ComputeSlice
	for remaining > 0 {
		d := remaining
		if slice > 0 && d > slice {
			d = slice
		}
		// Sample routing debt strictly around the slice: debt accrued while
		// the process is parked elsewhere (blocked receives, checkpoint
		// gates, including inside SafePoint below) used idle CPU and costs
		// nothing.
		e.node.ResetCPUDebt()
		e.P.Sleep(d)
		remaining -= d
		remaining += e.node.TakeCPUDebt()
		e.SafePoint()
	}
}

// Send transmits data to rank dst with the given application tag (>= 0).
// Sends are buffered and non-blocking beyond the software send overhead.
func (e *Env) Send(dst, tag int, data []byte) {
	e.SafePoint()
	e.send(dst, tag, data)
}

// send is Send without the safe-point poll, used by collectives that have
// already polled. It still blocks for flow-control credit.
func (e *Env) send(dst, tag int, data []byte) {
	e.acquireCredit(e.Rank, dst)
	var meta par.Piggyback
	if e.node.OutMeta != nil {
		meta = e.node.OutMeta()
	}
	msg := &Message{Src: e.Rank, Tag: tag, Data: data, Meta: meta}
	if e.node.LogSend != nil && dst != e.Rank {
		e.ssnOut[dst]++
		msg.SSN = e.ssnOut[dst]
	}
	if e.W.rel != nil && dst != e.Rank {
		e.W.rel.onSend(e.Rank, dst, msg)
	}
	e.MsgsSent++
	e.BytesSent += int64(len(data))
	e.node.M.Obs.Add(e.Rank, "mp.msgs_sent", 1)
	e.node.M.Obs.Add(e.Rank, "mp.bytes_sent", int64(len(data)))
	if e.W.OnSend != nil {
		e.W.OnSend(e.Rank, dst, msg)
	}
	e.node.Send(e.P, fabric.NodeID(dst), par.PortApp, msg, len(data))
	if e.node.LogSend != nil && dst != e.Rank {
		e.node.LogSend(dst, msg)
	}
}

// Recv blocks until a message matching src and tag (each possibly Any) is
// available, and returns it. Messages between a fixed pair of ranks are
// delivered in FIFO order.
func (e *Env) Recv(src, tag int) *Message {
	match := func(v *fabric.Envelope) bool {
		m, ok := v.Payload.(*Message)
		if !ok {
			return false
		}
		// Under message logging, consumption is per-sender sequential: a
		// recovering node must replay retransmissions in their original
		// order even if newer messages arrived first.
		if m.SSN != 0 && m.SSN != e.ssnIn[m.Src]+1 {
			return false
		}
		if src != Any && m.Src != src {
			return false
		}
		switch {
		case tag == Any:
			return m.Tag >= 0
		default:
			return m.Tag == tag
		}
	}
	for {
		e.SafePoint()
		// Suppress duplicates re-transmitted by a recovering sender: their
		// SSN is not beyond what we already consumed. The drop counts as a
		// consume for flow control.
		for {
			env, ok := e.node.AppBox.TakeMatch(func(v *fabric.Envelope) bool {
				m, isMsg := v.Payload.(*Message)
				return isMsg && m.SSN != 0 && m.SSN <= e.ssnIn[m.Src]
			})
			if !ok {
				break
			}
			e.W.returnCredit(env.Payload.(*Message).Src, e.Rank)
		}
		env, ok := e.node.AppBox.TakeMatch(match)
		if ok {
			m := env.Payload.(*Message)
			if m.SSN != 0 {
				e.ssnIn[m.Src] = m.SSN
			}
			e.W.returnCredit(m.Src, e.Rank)
			e.node.M.Obs.Add(e.Rank, "mp.msgs_delivered", 1)
			if e.node.PreConsume != nil {
				// The delivery safe point: communication-induced checkpointing
				// may take a forced checkpoint here, blocking the application,
				// before the message reaches it.
				e.node.PreConsume(e.P, m.Src, m.Meta)
			}
			if e.node.OnConsume != nil {
				e.node.OnConsume(m.Src, m.Meta, m.SSN)
			}
			if e.W.OnDeliver != nil {
				e.W.OnDeliver(e.Rank, m)
			}
			return m
		}
		e.node.AppBox.AwaitPut(e.P)
	}
}

// Barrier blocks until all ranks have entered it. Rank 0 acts as the
// coordinator of a flat gather/release exchange.
func (e *Env) Barrier() {
	e.SafePoint()
	n := e.Size()
	if n == 1 {
		return
	}
	if e.Rank == 0 {
		for i := 1; i < n; i++ {
			e.Recv(Any, tagBarrier)
		}
		for i := 1; i < n; i++ {
			e.send(i, tagBarrierRelease, nil)
		}
	} else {
		e.send(0, tagBarrier, nil)
		e.Recv(0, tagBarrierRelease)
	}
}

// Bcast distributes root's data to every rank along a binomial tree
// (the classic MPICH algorithm) and returns it. Non-root callers pass nil.
func (e *Env) Bcast(root int, data []byte) []byte {
	e.SafePoint()
	n := e.Size()
	vrank := (e.Rank - root + n) % n
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			src := (vrank - mask + root) % n
			data = e.Recv(src, tagBcast).Data
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < n {
			dst := (vrank + mask + root) % n
			e.send(dst, tagBcast, data)
		}
	}
	return data
}

// ReduceF64 combines one []float64 contribution per rank element-wise with
// op, delivering the result to root (others receive nil). The combination
// runs along a flat fan-in to keep op application order deterministic.
func (e *Env) ReduceF64(root int, vals []float64, op func(a, b float64) float64) []float64 {
	e.SafePoint()
	n := e.Size()
	if e.Rank == root {
		acc := append([]float64(nil), vals...)
		for i := 0; i < n; i++ {
			if i == root {
				continue
			}
			m := e.Recv(i, tagReduce)
			e.f64Scratch = DecodeF64sInto(e.f64Scratch[:0], m.Data)
			other := e.f64Scratch
			for j := range acc {
				acc[j] = op(acc[j], other[j])
			}
		}
		return acc
	}
	e.send(root, tagReduce, encodeF64s(vals))
	return nil
}

// AllReduceF64 is ReduceF64 followed by a broadcast of the result.
func (e *Env) AllReduceF64(vals []float64, op func(a, b float64) float64) []float64 {
	res := e.ReduceF64(0, vals, op)
	out := e.Bcast(0, encodeF64s(res))
	return decodeF64s(out)
}

// Gather collects one []byte per rank at root; the returned slice is indexed
// by rank (root's own contribution included). Non-root callers get nil.
func (e *Env) Gather(root int, data []byte) [][]byte {
	e.SafePoint()
	n := e.Size()
	if e.Rank == root {
		out := make([][]byte, n)
		out[root] = data
		for i := 0; i < n; i++ {
			if i == root {
				continue
			}
			m := e.Recv(i, tagGather)
			out[i] = m.Data
		}
		return out
	}
	e.send(root, tagGather, data)
	return nil
}
