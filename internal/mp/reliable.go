// Reliable transport over lossy links: an ack/retransmit layer slid beneath
// the library's FIFO messaging when a fault plan makes the fabric drop
// application messages.
//
// Unarmed (the default), the fabric itself guarantees in-order delivery and
// this file contributes nothing — no fields on the wire, no extra messages,
// no cost. Armed, every remote application message carries a per-
// (sender,receiver) wire sequence number; the receiver resequences arrivals,
// drops (but re-acknowledges) duplicates, and returns cumulative acks; the
// sender retransmits everything outstanding on a pair when its retransmit
// timer fires, doubling the timeout up to a cap and resetting it once the
// pair's queue drains. Flow-control credit is acquired once per logical
// message, so retransmissions travel outside the window, and acks are small
// control payloads the fault layer never drops (see mp.Droppable).
package mp

import (
	"repro/internal/fabric"
	"repro/internal/par"
	"repro/internal/sim"
)

// wireAck is the cumulative acknowledgement: rank From has delivered, in
// order, every wire sequence number up to UpTo sent to it by the addressee.
type wireAck struct {
	From int
	UpTo uint64
}

// sizeWireAck is the wire size charged for an ack payload.
const sizeWireAck = 16

// Droppable reports whether an envelope carries application data the fault
// layer may drop: only *Message traffic. Acks, checkpoint-protocol control
// and storage traffic must stay reliable — dropping them would hang the
// protocols above rather than degrade them (the transport recovers data
// messages only).
func Droppable(env *fabric.Envelope) bool {
	if env.Port != par.PortApp {
		return false
	}
	_, ok := env.Payload.(*Message)
	return ok
}

// reliable is the armed transport state, shared across ranks of one world
// (the simulation is single-threaded under the engine's handoff discipline).
type reliable struct {
	w        *World
	rto, cap sim.Duration

	next    [][]uint64                      // [src][dst]: last wire seq assigned
	in      [][]uint64                      // [dst][src]: last wire seq delivered in order
	held    [][]map[uint64]*fabric.Envelope // [dst][src]: out-of-order arrivals
	unacked [][][]*Message                  // [src][dst]: sent, awaiting acknowledgement
	rtoCur  [][]sim.Duration                // [src][dst]: current (doubling) timeout
	armed   [][]bool                        // [src][dst]: retransmit timer scheduled

	retransmits int64
}

// EnableRetransmit arms the ack/retransmit transport with the given initial
// retransmit timeout and its doubling cap. Call it after the world is
// created and before the simulation starts; it installs a par.Node Transport
// hook on every rank. Retransmit counters surface as "mp.retransmits" in the
// machine's observer.
func (w *World) EnableRetransmit(rto, rtoCap sim.Duration) {
	if rto <= 0 {
		rto = 100 * sim.Millisecond
	}
	if rtoCap < rto {
		rtoCap = rto
	}
	n := w.Size()
	r := &reliable{w: w, rto: rto, cap: rtoCap}
	r.next = grid[uint64](n)
	r.in = grid[uint64](n)
	r.unacked = grid[[]*Message](n)
	r.rtoCur = grid[sim.Duration](n)
	r.armed = grid[bool](n)
	r.held = make([][]map[uint64]*fabric.Envelope, n)
	for i := range r.held {
		r.held[i] = make([]map[uint64]*fabric.Envelope, n)
	}
	for s := range r.rtoCur {
		for d := range r.rtoCur[s] {
			r.rtoCur[s][d] = rto
		}
	}
	w.rel = r
	for rank := range w.M.Nodes {
		rank := rank
		w.M.Nodes[rank].Transport = func(env *fabric.Envelope) []*fabric.Envelope {
			return r.onArrive(rank, env)
		}
	}
}

func grid[T any](n int) [][]T {
	g := make([][]T, n)
	for i := range g {
		g[i] = make([]T, n)
	}
	return g
}

// Retransmits returns how many data messages the transport re-sent (zero
// when the layer was never armed).
func (w *World) Retransmits() int64 {
	if w.rel == nil {
		return 0
	}
	return w.rel.retransmits
}

// onSend stamps the next wire sequence number on an outgoing remote message
// and queues it for retransmission until acknowledged.
func (r *reliable) onSend(src, dst int, msg *Message) {
	r.next[src][dst]++
	msg.Wire = r.next[src][dst]
	r.unacked[src][dst] = append(r.unacked[src][dst], msg)
	r.arm(src, dst)
}

func (r *reliable) arm(src, dst int) {
	if r.armed[src][dst] {
		return
	}
	r.armed[src][dst] = true
	r.w.M.Eng.After(r.rtoCur[src][dst], func() { r.fire(src, dst) })
}

// fire retransmits everything outstanding on the pair (go-back-N: a gap at
// the receiver means the oldest loss stalls the rest anyway), doubles the
// timeout up to the cap, and re-arms while the queue is non-empty.
func (r *reliable) fire(src, dst int) {
	r.armed[src][dst] = false
	q := r.unacked[src][dst]
	if len(q) == 0 {
		r.rtoCur[src][dst] = r.rto
		return
	}
	node := r.w.M.Nodes[src]
	for _, msg := range q {
		r.retransmits++
		r.w.M.Obs.Add(src, "mp.retransmits", 1)
		node.Send(nil, fabric.NodeID(dst), par.PortApp, msg, len(msg.Data))
	}
	r.rtoCur[src][dst] *= 2
	if r.rtoCur[src][dst] > r.cap {
		r.rtoCur[src][dst] = r.cap
	}
	r.arm(src, dst)
}

// onArrive is rank's Transport hook: it consumes acks, resequences and
// deduplicates wire-numbered data messages, and passes everything else
// through untouched.
func (r *reliable) onArrive(rank int, env *fabric.Envelope) []*fabric.Envelope {
	switch msg := env.Payload.(type) {
	case wireAck:
		r.onAck(rank, msg)
		return nil
	case *Message:
		if msg.Wire == 0 || msg.Src == rank {
			return []*fabric.Envelope{env}
		}
		src := msg.Src
		switch next := r.in[rank][src] + 1; {
		case msg.Wire < next:
			// Duplicate of something already delivered: the ack must have
			// been outrun by the retransmit timer. Re-acknowledge, drop.
			r.sendAck(rank, src)
			return nil
		case msg.Wire > next:
			// A gap: hold until the missing messages arrive, and dup-ack so
			// the sender learns how far the in-order prefix reaches.
			if r.held[rank][src] == nil {
				r.held[rank][src] = make(map[uint64]*fabric.Envelope)
			}
			r.held[rank][src][msg.Wire] = env
			r.sendAck(rank, src)
			return nil
		}
		out := []*fabric.Envelope{env}
		r.in[rank][src] = msg.Wire
		for {
			nextEnv, ok := r.held[rank][src][r.in[rank][src]+1]
			if !ok {
				break
			}
			delete(r.held[rank][src], r.in[rank][src]+1)
			r.in[rank][src]++
			out = append(out, nextEnv)
		}
		r.sendAck(rank, src)
		return out
	}
	return []*fabric.Envelope{env}
}

func (r *reliable) sendAck(rank, to int) {
	r.w.M.Nodes[rank].Send(nil, fabric.NodeID(to), par.PortApp,
		wireAck{From: rank, UpTo: r.in[rank][to]}, sizeWireAck)
}

// onAck discards acknowledged messages from the rank→ack.From queue and, if
// it drained, resets the pair's timeout for the next exchange.
func (r *reliable) onAck(rank int, ack wireAck) {
	q := r.unacked[rank][ack.From]
	i := 0
	for i < len(q) && q[i].Wire <= ack.UpTo {
		i++
	}
	r.unacked[rank][ack.From] = q[i:]
	if len(r.unacked[rank][ack.From]) == 0 {
		r.rtoCur[rank][ack.From] = r.rto
	}
}
