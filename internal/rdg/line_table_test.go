package rdg

import (
	"reflect"
	"testing"

	"repro/internal/ckpt"
)

// TestRecoveryLineTable pins the line construction on hand-built dependency
// graphs whose orphan structure is known by inspection: domino chains of
// every depth, Z-paths that stay benign, and a Z-cycle that makes a
// checkpoint useless. Each case states the expected maximal consistent line
// and the exact orphan edges that restoring the latest checkpoints would
// create; the line itself must always come back orphan-free.
func TestRecoveryLineTable(t *testing.T) {
	cases := []struct {
		name string
		n    int
		recs []ckpt.Record
		line []int // expected maximal consistent recovery line

		// Orphan edges of the naive latest-checkpoint line; nil means the
		// latest line is already consistent (zero rollback).
		orphansAtLatest []Edge
		domino          bool
		rollback        []int // checkpoint generations each rank discards
	}{
		{
			// Independent progress, no communication: nothing constrains the
			// latest line.
			name: "no-messages-zero-rollback",
			n:    3,
			recs: []ckpt.Record{
				rec(0, 1, 10), rec(0, 2, 20),
				rec(1, 1, 11), rec(1, 2, 21),
				rec(2, 1, 12),
			},
			line:     []int{2, 2, 1},
			rollback: []int{0, 0, 0},
		},
		{
			// One orphan receive: p1's checkpoint 2 includes a message sent in
			// p0's interval 2, which p0's latest checkpoint (2) excludes.
			name: "single-orphan-one-step",
			n:    2,
			recs: []ckpt.Record{
				rec(0, 1, 10), rec(0, 2, 20),
				rec(1, 1, 12), rec(1, 2, 22, dep(0, 2)),
			},
			line:            []int{2, 1},
			orphansAtLatest: []Edge{{Receiver: 1, RecvCkpt: 2, Sender: 0, SentInterval: 2}},
			rollback:        []int{0, 1},
		},
		{
			// The same receive with the sender checkpointed past the send: the
			// dependency is satisfied, no rollback at all.
			name: "z-path-satisfied",
			n:    2,
			recs: []ckpt.Record{
				rec(0, 1, 10), rec(0, 2, 20), rec(0, 3, 30),
				rec(1, 1, 12), rec(1, 2, 22, dep(0, 2)),
			},
			line:     []int{3, 2},
			rollback: []int{0, 0},
		},
		{
			// Domino chain p0 <- p1 <- p2 <- p3: each rank's checkpoint 1
			// consumed a message from the next rank's still-open interval 1,
			// so p3's missing second checkpoint unravels every other rank —
			// rollback propagates the full length of the chain.
			name: "domino-chain-depth-3",
			n:    4,
			recs: []ckpt.Record{
				rec(0, 1, 13, dep(1, 1)),
				rec(1, 1, 12, dep(2, 1)),
				rec(2, 1, 11, dep(3, 1)),
				rec(3, 1, 10),
			},
			line: []int{0, 0, 0, 1},
			orphansAtLatest: []Edge{
				{Receiver: 0, RecvCkpt: 1, Sender: 1, SentInterval: 1},
				{Receiver: 1, RecvCkpt: 1, Sender: 2, SentInterval: 1},
				{Receiver: 2, RecvCkpt: 1, Sender: 3, SentInterval: 1},
			},
			domino:   true,
			rollback: []int{1, 1, 1, 0},
		},
		{
			// The same chain topology, but every message was sent from the
			// neighbour's interval 0 — already inside its checkpoint 1 — so
			// every dependency is satisfied and propagation never starts.
			name: "chain-on-closed-intervals-no-domino",
			n:    4,
			recs: []ckpt.Record{
				rec(0, 1, 13, dep(1, 0)),
				rec(1, 1, 12, dep(2, 0)),
				rec(2, 1, 11, dep(3, 0)),
				rec(3, 1, 10),
			},
			line:     []int{1, 1, 1, 1},
			rollback: []int{0, 0, 0, 0},
		},
		{
			// Sparse indices, the CIC geometry: a forced checkpoint made p1
			// jump from 1 straight to 3 — index 2 was never taken. Rolling p1
			// back past its orphaned checkpoint 3 must land on its newest
			// *committed* checkpoint below it (1), not on the phantom index 2
			// no scheme ever wrote. (Caught live by a CIC_INC oracle cell:
			// the phantom line index made recovery reclaim the rank's real
			// checkpoints and then fail to read the phantom one back.)
			name: "sparse-indices-snap-to-committed",
			n:    2,
			recs: []ckpt.Record{
				rec(0, 1, 10), rec(0, 2, 20),
				rec(1, 1, 12), rec(1, 3, 22, dep(0, 2)),
			},
			line: []int{2, 1},
			orphansAtLatest: []Edge{
				{Receiver: 1, RecvCkpt: 3, Sender: 0, SentInterval: 2},
			},
			rollback: []int{0, 2},
		},
		{
			// Z-cycle: p0's checkpoint 2 depends on p1's interval 1, and p1's
			// checkpoint 1 depends on p0's interval 1 — a zigzag path from
			// p1's checkpoint 1 back to itself. That checkpoint lies on no
			// consistent line (a "useless" checkpoint in the CIC literature):
			// the line lands at [1 0], skipping it even though p1 rolled back.
			name: "z-cycle-useless-checkpoint",
			n:    2,
			recs: []ckpt.Record{
				rec(0, 1, 10), rec(0, 2, 20, dep(1, 1)),
				rec(1, 1, 15, dep(0, 1)),
			},
			line: []int{1, 0},
			orphansAtLatest: []Edge{
				{Receiver: 0, RecvCkpt: 2, Sender: 1, SentInterval: 1},
			},
			domino:   true,
			rollback: []int{1, 1},
		},
		{
			// Ping-pong exchange where every interval both sends and receives:
			// the canonical total domino, all the way to the initial states.
			name: "ping-pong-total-domino",
			n:    2,
			recs: []ckpt.Record{
				rec(0, 1, 10, dep(1, 0), dep(1, 1)), rec(1, 1, 15, dep(0, 0), dep(0, 1)),
				rec(0, 2, 20, dep(1, 1), dep(1, 2)), rec(1, 2, 25, dep(0, 1), dep(0, 2)),
			},
			// Only the newest exchange is orphaned at the latest line; the
			// earlier zigzag edges become orphans as propagation peels the
			// line back, which is exactly what makes the domino total.
			line: []int{0, 0},
			orphansAtLatest: []Edge{
				{Receiver: 0, RecvCkpt: 2, Sender: 1, SentInterval: 2},
				{Receiver: 1, RecvCkpt: 2, Sender: 0, SentInterval: 2},
			},
			domino:   true,
			rollback: []int{2, 2},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			g := FromRecords(tc.n, tc.recs)
			line := g.RecoveryLine()
			if !reflect.DeepEqual(line, tc.line) {
				t.Fatalf("RecoveryLine() = %v, want %v", line, tc.line)
			}
			if !g.Consistent(line) {
				t.Fatalf("computed line %v is inconsistent: orphans %v", line, g.OrphanEdges(line))
			}
			if got := g.OrphanEdges(line); len(got) != 0 {
				t.Fatalf("OrphanEdges(line) = %v, want none", got)
			}

			latest := g.Latest()
			gotOrphans := g.OrphanEdges(latest)
			if !sameEdgeSet(gotOrphans, tc.orphansAtLatest) {
				t.Fatalf("OrphanEdges(latest %v) = %v, want %v", latest, gotOrphans, tc.orphansAtLatest)
			}
			if got := g.Consistent(latest); got != (len(tc.orphansAtLatest) == 0) {
				t.Fatalf("Consistent(latest) = %v with orphans %v", got, gotOrphans)
			}
			if got := g.ZeroRollback(); got != (len(tc.orphansAtLatest) == 0) {
				t.Fatalf("ZeroRollback() = %v, want %v", got, len(tc.orphansAtLatest) == 0)
			}
			if got := g.Domino(line); got != tc.domino {
				t.Fatalf("Domino(%v) = %v, want %v", line, got, tc.domino)
			}
			if got := rollbackCheckpoints(g, line); !reflect.DeepEqual(got, tc.rollback) {
				t.Fatalf("rollbackCheckpoints = %v, want %v", got, tc.rollback)
			}
		})
	}
}

// sameEdgeSet compares edge slices ignoring order (the graph stores edges in
// record order, which the test table need not mirror).
func sameEdgeSet(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
outer:
	for _, e := range a {
		for i, f := range b {
			if !used[i] && e == f {
				used[i] = true
				continue outer
			}
		}
		return false
	}
	return true
}
