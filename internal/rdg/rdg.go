// Package rdg analyzes the recovery properties of independent (uncoordinated)
// checkpointing: it builds the rollback-dependency graph from the dependency
// metadata persisted with each checkpoint, computes the recovery line (the
// most recent consistent set of checkpoints), quantifies rollback distance
// and the domino effect, and identifies garbage checkpoints that can be
// reclaimed from stable storage.
//
// The model follows the classic literature (Randell's domino effect; Wang et
// al.'s checkpoint space reclamation): process p's interval i is the
// execution between its checkpoints i and i+1 (checkpoint 0 is the initial
// state). A persisted edge says "p consumed, during the interval closed by
// its checkpoint i, a message sent by q during q's interval j". A recovery
// line L is consistent iff it creates no orphan message: if p restores
// checkpoint i (which includes the receive), q must restore a state that
// includes the send, i.e. L[q] > j.
package rdg

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/ckpt"
	"repro/internal/sim"
)

// CheckpointID names one checkpoint.
type CheckpointID struct {
	Rank  int
	Index int
}

// Edge is one persisted receive dependency: Receiver consumed, during the
// interval closed by its checkpoint RecvCkpt, a message sent by Sender
// during the sender's interval SentInterval.
type Edge struct {
	Receiver     int
	RecvCkpt     int
	Sender       int
	SentInterval int
}

// Graph is the rollback-dependency structure of one run. It grows one
// committed checkpoint at a time (Add), so a caller that audits every commit
// keeps one graph for the whole run instead of rebuilding it. A Graph is not
// safe for concurrent use: RecoveryLine remembers its answer to narrow the
// next one.
type Graph struct {
	n      int
	ckpts  [][]stamp // per rank, committed checkpoints by ascending index; indices can be sparse (CIC jumps)
	latest []int     // newest durable checkpoint index per rank
	edges  []Edge

	// floor is a line known to be consistent over every edge, and live the
	// edges a line at or above floor can still orphan: an edge whose send
	// lies below floor on the sender is inside every such line's state. The
	// maximal consistent line never falls below a consistent line, so
	// RecoveryLine and the orphan scans read live alone — the edges of the
	// run's last few intervals, however long the run. A zero floor keeps
	// every edge live.
	floor []int
	live  []Edge
}

// stamp is one committed checkpoint of a rank: its index and when it became
// durable.
type stamp struct {
	index int
	at    sim.Time
}

// New returns the graph of a run on n ranks before any checkpoint commits:
// every rank at its initial state, checkpoint 0.
func New(n int) *Graph {
	return &Graph{n: n, ckpts: make([][]stamp, n), latest: make([]int, n), floor: make([]int, n)}
}

// FromRecords builds the graph over all committed checkpoints of an
// independent-checkpointing run on n ranks.
func FromRecords(n int, recs []ckpt.Record) *Graph {
	return FromRecordsAt(n, recs, sim.Time(1<<62))
}

// FromRecordsAt builds the graph visible at a failure at time t: only
// checkpoints durable strictly before t exist in stable storage.
func FromRecordsAt(n int, recs []ckpt.Record, t sim.Time) *Graph {
	g := New(n)
	for _, r := range recs {
		if r.At < t {
			g.Add(r)
		}
	}
	return g
}

// Add records one committed checkpoint and its receive dependencies. A
// checkpoint committed again under the same index keeps the later time.
func (g *Graph) Add(r ckpt.Record) {
	if i, ok := g.find(r.Rank, r.Index); ok {
		g.ckpts[r.Rank][i].at = r.At
	} else {
		g.ckpts[r.Rank] = slices.Insert(g.ckpts[r.Rank], i, stamp{r.Index, r.At})
	}
	if r.Index > g.latest[r.Rank] {
		g.latest[r.Rank] = r.Index
	}
	for _, d := range r.Deps {
		e := Edge{Receiver: r.Rank, RecvCkpt: r.Index, Sender: d.SrcRank, SentInterval: int(d.SrcIndex)}
		g.edges = append(g.edges, e)
		switch {
		case e.orphanedBy(g.floor):
			// A checkpoint at or below the floor gained a receive whose
			// send the floor excludes: the floor is no longer consistent,
			// so every edge is live again until the next RecoveryLine.
			clear(g.floor)
			g.live = append(g.live[:0], g.edges...)
		case e.SentInterval >= g.floor[e.Sender]:
			g.live = append(g.live, e)
		}
	}
}

// Latest returns the newest durable checkpoint index of each rank.
func (g *Graph) Latest() []int { return append([]int(nil), g.latest...) }

// CheckpointTime returns when a checkpoint became durable (zero time for the
// initial state, checkpoint 0).
func (g *Graph) CheckpointTime(id CheckpointID) sim.Time {
	if i, ok := g.find(id.Rank, id.Index); ok && id.Index != 0 {
		return g.ckpts[id.Rank][i].at
	}
	return 0
}

// RecoveryLine computes the most recent consistent recovery line by rollback
// propagation: start from every process's newest checkpoint and roll a
// process back past any receive whose matching send is not included on the
// other side, until no orphan messages remain. The result is the maximal
// consistent line (the lattice of consistent cuts guarantees uniqueness).
func (g *Graph) RecoveryLine() []int {
	line := g.Latest()
	for changed := true; changed; {
		changed = false
		for _, e := range g.live {
			if e.orphanedBy(line) {
				line[e.Receiver] = g.snapDown(e.Receiver, e.RecvCkpt-1)
				changed = true
			}
		}
	}
	// Every consistent line, the floor included, lies at or below the maximal
	// one, so the line clears the edges below the floor as well: it is
	// consistent over every edge and becomes the floor, and the edges whose
	// send it now includes stop being live.
	copy(g.floor, line)
	live := g.live[:0]
	for _, e := range g.live {
		if e.SentInterval >= line[e.Sender] {
			live = append(live, e)
		}
	}
	g.live = live
	return line
}

// snapDown returns the newest committed checkpoint of rank at or below idx,
// or 0 (the initial state) if none exists. Rolling back past a receive lands
// on "just before the checkpoint that closed it" — but CIC's forced
// checkpoints jump indices, so that index may name a checkpoint the rank
// never took; the restorable state is the nearest committed one below it.
func (g *Graph) snapDown(rank, idx int) int {
	if i, _ := g.find(rank, idx+1); i > 0 {
		return max(g.ckpts[rank][i-1].index, 0)
	}
	return 0
}

// find returns where checkpoint index of rank sits, or would sit, in its
// index-sorted checkpoints, and whether it is there.
func (g *Graph) find(rank, index int) (int, bool) {
	return slices.BinarySearchFunc(g.ckpts[rank], index, func(c stamp, index int) int { return cmp.Compare(c.index, index) })
}

// Consistent reports whether a recovery line creates no orphan message: for
// every persisted receive included in the line, the matching send must be
// included too. RecoveryLine always returns a consistent line; the predicate
// exists to assert protocol guarantees about *specific* lines — notably that
// communication-induced checkpointing keeps the latest-checkpoint line
// consistent, which independent checkpointing does not.
func (g *Graph) Consistent(line []int) bool {
	for _, e := range g.edgesFor(line) {
		if e.orphanedBy(line) {
			return false
		}
	}
	return true
}

// OrphanEdges returns the edges that make a line inconsistent: persisted
// receives whose matching send the line excludes. Empty for a consistent
// line; the correctness oracle reports them verbatim when an invariant
// trips, so a violation names the exact orphan messages.
func (g *Graph) OrphanEdges(line []int) []Edge {
	var out []Edge
	for _, e := range g.edgesFor(line) {
		if e.orphanedBy(line) {
			out = append(out, e)
		}
	}
	return out
}

// edgesFor returns the edges that can orphan line: the live ones when line
// is at or above the floor on every rank, since every other send lies inside
// its state; else all of them.
func (g *Graph) edgesFor(line []int) []Edge {
	for p, l := range line {
		if l < g.floor[p] {
			return g.edges
		}
	}
	return g.live
}

// orphanedBy reports whether line restores the receive but not the send: the
// receive is part of p's restored state iff line[p] >= RecvCkpt, the send
// part of q's iff line[q] > SentInterval.
func (e Edge) orphanedBy(line []int) bool {
	return line[e.Receiver] >= e.RecvCkpt && line[e.Sender] <= e.SentInterval
}

// ZeroRollback reports whether the maximal consistent recovery line is the
// set of latest checkpoints — a failure "now" loses no checkpointed work on
// any rank. This is the guarantee the CIC family provides at end of run and
// the domino effect destroys for independent checkpointing.
func (g *Graph) ZeroRollback() bool {
	for p, l := range g.RecoveryLine() {
		if l != g.latest[p] {
			return false
		}
	}
	return true
}

// Domino reports whether the line exhibits the domino effect: a process
// forced all the way back to its initial state despite having taken
// checkpoints.
func (g *Graph) Domino(line []int) bool {
	for p, l := range line {
		if l == 0 && g.latest[p] > 0 {
			return true
		}
	}
	return false
}

// RollbackTime returns, per rank, the lost virtual time if a failure occurs
// at t and the system restores the line: t minus the restored checkpoint's
// durable time.
func (g *Graph) RollbackTime(line []int, t sim.Time) []sim.Duration {
	out := make([]sim.Duration, g.n)
	for p := range out {
		out[p] = t.Sub(g.CheckpointTime(CheckpointID{p, line[p]}))
	}
	return out
}

// Garbage returns the checkpoints that can never appear on any future
// recovery line and may be reclaimed: everything strictly older than the
// current line. (The line is monotonic — new checkpoints only add
// constraints on new intervals — so this conservative rule is safe; Wang et
// al.'s exact algorithm can reclaim more but never keeps fewer than N(N+1)/2.)
func (g *Graph) Garbage(line []int) []CheckpointID {
	var out []CheckpointID
	for p, cs := range g.ckpts {
		for _, c := range cs {
			if c.index >= line[p] {
				break
			}
			if c.index >= 1 {
				out = append(out, CheckpointID{p, c.index})
			}
		}
	}
	return out
}

// Retained returns how many durable checkpoints remain after reclaiming
// Garbage(line).
func (g *Graph) Retained(line []int) int {
	total := 0
	for _, cs := range g.ckpts {
		total += len(cs)
	}
	return total - len(g.Garbage(line))
}

func (e Edge) String() string {
	return fmt.Sprintf("recv@%d.%d <- send@%d.%d", e.Receiver, e.RecvCkpt, e.Sender, e.SentInterval)
}
