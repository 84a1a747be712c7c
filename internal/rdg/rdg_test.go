package rdg

import (
	"testing"
	"testing/quick"

	"repro/internal/ckpt"
	"repro/internal/sim"
)

// rec builds a Record succinctly.
func rec(rank, index int, at sim.Duration, deps ...ckpt.Dep) ckpt.Record {
	return ckpt.Record{Rank: rank, Index: index, At: sim.Time(at), Deps: deps}
}

func dep(src, interval int) ckpt.Dep {
	return ckpt.Dep{SrcRank: src, SrcIndex: uint64(interval)}
}

func TestNoMessagesMeansLatestLine(t *testing.T) {
	g := FromRecords(2, []ckpt.Record{
		rec(0, 1, 10), rec(0, 2, 20),
		rec(1, 1, 12), rec(1, 2, 22),
	})
	line := g.RecoveryLine()
	if line[0] != 2 || line[1] != 2 {
		t.Fatalf("line = %v", line)
	}
	if g.Domino(line) {
		t.Fatal("spurious domino")
	}
}

// rollbackCheckpoints returns, per rank, how many checkpoint generations the
// line discards (latest - line).
func rollbackCheckpoints(g *Graph, line []int) []int {
	out := make([]int, g.n)
	for p := range out {
		out[p] = g.latest[p] - line[p]
	}
	return out
}

func TestOrphanForcesRollback(t *testing.T) {
	// p1's checkpoint 2 closed an interval in which it consumed a message
	// sent during p0's interval 2 — but p0 never checkpointed past index 2,
	// so restoring (p0:2, p1:2) would orphan that message.
	g := FromRecords(2, []ckpt.Record{
		rec(0, 1, 10), rec(0, 2, 20),
		rec(1, 1, 12), rec(1, 2, 22, dep(0, 2)),
	})
	line := g.RecoveryLine()
	if line[0] != 2 || line[1] != 1 {
		t.Fatalf("line = %v, want [2 1]", line)
	}
	if rb := rollbackCheckpoints(g, line); rb[1] != 1 {
		t.Fatalf("rollback = %v", rb)
	}
}

func TestSatisfiedDependencyKeepsLine(t *testing.T) {
	// Same receive, but the sender checkpointed afterwards (index 3 > sent
	// interval 2), so the send is inside the restored state.
	g := FromRecords(2, []ckpt.Record{
		rec(0, 1, 10), rec(0, 2, 20), rec(0, 3, 30),
		rec(1, 1, 12), rec(1, 2, 22, dep(0, 2)),
	})
	line := g.RecoveryLine()
	if line[0] != 3 || line[1] != 2 {
		t.Fatalf("line = %v, want [3 2]", line)
	}
}

func TestCascadingRollback(t *testing.T) {
	// A chain: rolling p2 back invalidates p1's receive, which invalidates
	// p0's receive — classic rollback propagation.
	g := FromRecords(3, []ckpt.Record{
		rec(0, 1, 10, dep(1, 1)), // p0 ckpt1 consumed msg from p1's interval 1
		rec(1, 1, 11, dep(2, 1)), // p1 ckpt1 consumed msg from p2's interval 1
		rec(2, 1, 9),             // p2 ckpt1: its interval 1 starts here; the sends above are post-ckpt1
	})
	line := g.RecoveryLine()
	// p2's latest is 1, so sends from its interval 1 are undone; p1 must
	// drop ckpt 1; then p1's interval-1 sends are undone, p0 drops ckpt 1.
	if line[0] != 0 || line[1] != 0 || line[2] != 1 {
		t.Fatalf("line = %v, want [0 0 1]", line)
	}
	if !g.Domino(line) {
		t.Fatal("domino not detected")
	}
}

func TestPingPongDomino(t *testing.T) {
	// Two processes exchanging messages so that every checkpoint interval
	// both sends and receives: the canonical domino pattern collapses the
	// line to the initial states.
	var recs []ckpt.Record
	for i := 1; i <= 4; i++ {
		recs = append(recs,
			rec(0, i, sim.Duration(10*i), dep(1, i-1), dep(1, i)),
			rec(1, i, sim.Duration(10*i+5), dep(0, i-1), dep(0, i)),
		)
	}
	g := FromRecords(2, recs)
	line := g.RecoveryLine()
	if line[0] != 0 || line[1] != 0 {
		t.Fatalf("line = %v, want total domino [0 0]", line)
	}
	if !g.Domino(line) {
		t.Fatal("domino not flagged")
	}
	if rt := g.RollbackTime(line, sim.Time(100*sim.Nanosecond)); rt[0] != 100*sim.Nanosecond {
		t.Fatalf("rollback time = %v", rt)
	}
}

func TestFailureTimeFiltersCheckpoints(t *testing.T) {
	recs := []ckpt.Record{
		rec(0, 1, 10), rec(0, 2, 30),
		rec(1, 1, 15), rec(1, 2, 35),
	}
	g := FromRecordsAt(2, recs, sim.Time(20*sim.Nanosecond))
	if l := g.Latest(); l[0] != 1 || l[1] != 1 {
		t.Fatalf("latest at t=20 = %v", l)
	}
}

func TestGarbageBelowLine(t *testing.T) {
	g := FromRecords(2, []ckpt.Record{
		rec(0, 1, 10), rec(0, 2, 20), rec(0, 3, 30),
		rec(1, 1, 12), rec(1, 2, 22), rec(1, 3, 32),
	})
	line := g.RecoveryLine() // [3 3]
	garbage := g.Garbage(line)
	if len(garbage) != 4 { // indices 1,2 of both ranks
		t.Fatalf("garbage = %v", garbage)
	}
	if got := g.Retained(line); got != 2 {
		t.Fatalf("retained = %d", got)
	}
}

// Property: the recovery line is always consistent (no orphan edge) and
// never exceeds the latest checkpoints.
func TestRecoveryLineConsistencyProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		const n = 4
		var recs []ckpt.Record
		next := [n]int{}
		// Interpret the fuzz bytes as a sequence of checkpoint events with
		// pseudo-random dependencies.
		for i := 0; i+2 < len(raw) && i < 120; i += 3 {
			p := int(raw[i]) % n
			next[p]++
			var deps []ckpt.Dep
			q := int(raw[i+1]) % n
			if q != p && next[q] >= 0 {
				j := int(raw[i+2]) % (next[q] + 1)
				deps = append(deps, dep(q, j))
			}
			recs = append(recs, rec(p, next[p], sim.Duration(i+1), deps...))
		}
		g := FromRecords(n, recs)
		line := g.RecoveryLine()
		for p := 0; p < n; p++ {
			if line[p] < 0 || line[p] > g.latest[p] {
				return false
			}
		}
		for _, e := range g.edges {
			if line[e.Receiver] >= e.RecvCkpt && line[e.Sender] <= e.SentInterval {
				return false // orphan message survived
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the line is maximal — bumping any single process one checkpoint
// forward breaks consistency (otherwise rollback propagation stopped early).
func TestRecoveryLineMaximalityProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		const n = 3
		var recs []ckpt.Record
		next := [n]int{}
		for i := 0; i+2 < len(raw) && i < 90; i += 3 {
			p := int(raw[i]) % n
			next[p]++
			var deps []ckpt.Dep
			q := int(raw[i+1]) % n
			if q != p {
				deps = append(deps, dep(q, int(raw[i+2])%(next[q]+1)))
			}
			recs = append(recs, rec(p, next[p], sim.Duration(i+1), deps...))
		}
		g := FromRecords(n, recs)
		line := g.RecoveryLine()
		consistent := func(l []int) bool {
			for _, e := range g.edges {
				if l[e.Receiver] >= e.RecvCkpt && l[e.Sender] <= e.SentInterval {
					return false
				}
			}
			return true
		}
		for p := 0; p < n; p++ {
			if line[p] < g.latest[p] {
				bumped := append([]int(nil), line...)
				bumped[p]++
				if consistent(bumped) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeString(t *testing.T) {
	e := Edge{Receiver: 1, RecvCkpt: 2, Sender: 0, SentInterval: 3}
	if e.String() != "recv@1.2 <- send@0.3" {
		t.Fatalf("String = %q", e.String())
	}
}
