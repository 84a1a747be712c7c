package rdg

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/rng"
	"repro/internal/sim"
)

// refGraph is the graph as it was built before Graph grew one checkpoint at
// a time: maps of every committed checkpoint, every edge scanned on every
// question. It is the reference the growing graph is held to.
type refGraph struct {
	latest []int
	exists map[CheckpointID]bool
	at     map[CheckpointID]sim.Time
	edges  []Edge
}

func newRefGraph(n int, recs []ckpt.Record) *refGraph {
	g := &refGraph{latest: make([]int, n), exists: map[CheckpointID]bool{}, at: map[CheckpointID]sim.Time{}}
	for _, r := range recs {
		g.latest[r.Rank] = max(g.latest[r.Rank], r.Index)
		g.exists[CheckpointID{r.Rank, r.Index}] = true
		g.at[CheckpointID{r.Rank, r.Index}] = r.At
		for _, d := range r.Deps {
			g.edges = append(g.edges, Edge{Receiver: r.Rank, RecvCkpt: r.Index, Sender: d.SrcRank, SentInterval: int(d.SrcIndex)})
		}
	}
	return g
}

func (g *refGraph) line() []int {
	line := append([]int(nil), g.latest...)
	for changed := true; changed; {
		changed = false
		for _, e := range g.edges {
			if line[e.Receiver] >= e.RecvCkpt && line[e.Sender] <= e.SentInterval {
				idx := e.RecvCkpt - 1
				for ; idx > 0 && !g.exists[CheckpointID{e.Receiver, idx}]; idx-- {
				}
				line[e.Receiver] = max(idx, 0)
				changed = true
			}
		}
	}
	return line
}

func (g *refGraph) orphans(line []int) []Edge {
	var out []Edge
	for _, e := range g.edges {
		if line[e.Receiver] >= e.RecvCkpt && line[e.Sender] <= e.SentInterval {
			out = append(out, e)
		}
	}
	return out
}

// randomHistory draws a commit stream on n ranks: sparse index jumps (CIC),
// receives from any peer's recent intervals, and now and then a checkpoint
// committed below its rank's newest one — the case that invalidates the
// growing graph's floor.
func randomHistory(r *rng.RNG, n, events int) []ckpt.Record {
	next := make([]int, n)
	var recs []ckpt.Record
	for ev := 0; ev < events; ev++ {
		p := intn(r, n)
		idx := next[p] + 1 + intn(r, 2)
		if intn(r, 8) == 0 && next[p] > 2 {
			idx = 1 + intn(r, next[p]) // late commit of an older index
		} else {
			next[p] = idx
		}
		var deps []ckpt.Dep
		for d := intn(r, 3); d > 0; d-- {
			if q := intn(r, n); q != p {
				deps = append(deps, dep(q, max(next[q]-intn(r, 3), 0)))
			}
		}
		recs = append(recs, rec(p, idx, sim.Duration(ev+1), deps...))
	}
	return recs
}

// TestGrowingGraphMatchesRebuild grows one graph a commit at a time, asking
// for the recovery line after every commit as the oracle's audit does, and
// holds every answer to a graph rebuilt from scratch over the same records:
// the line, the orphans and consistency of the line, of the newest
// checkpoints and of a line below the floor, the edge set, the garbage, and
// each checkpoint's time (a re-committed index keeps the later one).
func TestGrowingGraphMatchesRebuild(t *testing.T) {
	r := rng.New(0x6e0_11e5)
	for trial := 0; trial < 200; trial++ {
		n := 2 + intn(r, 4)
		recs := randomHistory(r, n, 5+intn(r, 60))
		g := New(n)
		for i, rc := range recs {
			g.Add(rc)
			if intn(r, 3) == 0 {
				continue // several commits between questions
			}
			ref := newRefGraph(n, recs[:i+1])
			line := g.RecoveryLine()
			if want := ref.line(); !reflect.DeepEqual(line, want) {
				t.Fatalf("trial %d commit %d: line %v, rebuilt graph says %v", trial, i, line, want)
			}
			below := append([]int(nil), line...)
			below[intn(r, n)] = 0
			for _, l := range [][]int{line, g.Latest(), below} {
				if got, want := g.OrphanEdges(l), ref.orphans(l); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d commit %d: orphans of %v are %v, rebuilt graph says %v", trial, i, l, got, want)
				}
				if got, want := g.Consistent(l), len(ref.orphans(l)) == 0; got != want {
					t.Fatalf("trial %d commit %d: Consistent(%v) = %v, rebuilt graph says %v", trial, i, l, got, want)
				}
			}
			if !slices.Equal(g.edges, ref.edges) {
				t.Fatalf("trial %d commit %d: edges differ", trial, i)
			}
			for id, at := range ref.at {
				if got := g.CheckpointTime(id); got != at {
					t.Fatalf("trial %d commit %d: checkpoint %v durable at %v, rebuilt graph says %v", trial, i, id, got, at)
				}
			}
			rebuilt := FromRecords(n, recs[:i+1])
			if !reflect.DeepEqual(g.Garbage(line), rebuilt.Garbage(line)) || g.Retained(line) != rebuilt.Retained(line) {
				t.Fatalf("trial %d commit %d: garbage differs from the rebuilt graph's", trial, i)
			}
		}
	}
}

// TestLiveEdgesStayBounded is the property the oracle's per-commit audit
// rests on: on a run whose recovery line keeps advancing — a ring, each rank
// consuming its neighbour's message of the current interval — the edges a
// recovery-line question scans stay those of the last few intervals, however
// many checkpoints the run commits.
func TestLiveEdgesStayBounded(t *testing.T) {
	const n, rounds = 8, 2000
	g := New(n)
	most := 0
	for i := 1; i <= rounds; i++ {
		for p := 0; p < n; p++ {
			g.Add(rec(p, i, sim.Duration(i*n+p), dep((p+n-1)%n, i-1)))
			line := g.RecoveryLine()
			if line[p] < i-1 {
				t.Fatalf("round %d: rank %d rolled back to %d", i, p, line[p])
			}
			most = max(most, len(g.live))
		}
	}
	if len(g.edges) != n*rounds {
		t.Fatalf("graph holds %d edges, want %d", len(g.edges), n*rounds)
	}
	if most > 2*n {
		t.Fatalf("a recovery line scanned up to %d live edges of %d; want at most two intervals' worth (%d)", most, len(g.edges), 2*n)
	}
}
