package apps

import (
	"fmt"
	"math/bits"

	"repro/internal/codec"
	"repro/internal/mp"
)

// NQueensConfig parameterizes the N-queens counting benchmark.
type NQueensConfig struct {
	N          int
	OpsPerNode float64 // abstract CPU ops per search-tree node
}

// DefaultNQueens returns the benchmark configuration used by the tables.
func DefaultNQueens(n int) NQueensConfig { return NQueensConfig{N: n, OpsPerNode: 250} }

// knownQueensCounts are the published solution counts used as the oracle.
var knownQueensCounts = map[int]int64{
	4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724,
	11: 2680, 12: 14200, 13: 73712, 14: 365596,
}

// NQueens counts the solutions of the N-queens problem with a master/worker
// decomposition: tasks are the valid placements of queens on the first two
// rows; workers count completions by depth-first search. Rank 0 is the
// master.
type NQueens struct {
	Cfg  NQueensConfig
	Rank int
	Size int

	// Master state.
	NextTask int
	Released int
	Count    int64

	// Worker state.
	Phase    int
	Pending  []byte
	Explored int64

	tasks [][2]int
}

// NewNQueens builds rank's role.
func NewNQueens(rank, size int, cfg NQueensConfig) *NQueens {
	q := &NQueens{Cfg: cfg, Rank: rank, Size: size}
	for a := 0; a < cfg.N; a++ {
		for b := 0; b < cfg.N; b++ {
			if b != a && b != a-1 && b != a+1 {
				q.tasks = append(q.tasks, [2]int{a, b})
			}
		}
	}
	return q
}

// NQueensWorkload adapts the benchmark to the harness registry.
func NQueensWorkload(cfg NQueensConfig) Workload {
	return Workload{
		Name: fmt.Sprintf("NQUEENS-%d", cfg.N),
		Make: func(rank, size int) mp.Program { return NewNQueens(rank, size, cfg) },
		Check: func(progs []mp.Program) error {
			want, ok := knownQueensCounts[cfg.N]
			if !ok {
				want = SequentialNQueens(cfg.N)
			}
			master := progs[0].(*NQueens)
			if master.Count != want {
				return fmt.Errorf("nqueens: count %d, want %d", master.Count, want)
			}
			return nil
		},
	}
}

// Run executes the master or worker role.
func (q *NQueens) Run(e *mp.Env) {
	if q.Rank == 0 {
		q.runMaster(e)
	} else {
		q.runWorker(e)
	}
}

func (q *NQueens) runMaster(e *mp.Env) {
	for q.Released < q.Size-1 {
		m := e.Recv(mp.Any, tagWorkReq)
		if r := codec.NewReader(m.Data); r.Bool() {
			q.Count += r.I64()
			q.Explored += r.I64()
		}
		e.Compute(1000)
		w := codec.NewWriter()
		if q.NextTask < len(q.tasks) {
			w.Int(q.NextTask)
			q.NextTask++
		} else {
			w.Int(-1)
			q.Released++
		}
		e.Send(m.Src, tagWork, w.Bytes())
	}
}

func (q *NQueens) runWorker(e *mp.Env) {
	for {
		if q.Phase == 0 {
			req := q.Pending
			if req == nil {
				w := codec.NewWriter()
				w.Bool(false)
				req = w.Bytes()
			}
			e.Send(0, tagWorkReq, req)
			q.Phase = 1
		}
		m := e.Recv(0, tagWork)
		task := codec.NewReader(m.Data).Int()
		if task < 0 {
			return
		}
		prefix := q.tasks[task]
		count, explored := countFromPrefix(q.Cfg.N, prefix)
		w := codec.NewWriter()
		w.Bool(true)
		w.I64(count)
		w.I64(int64(explored))
		q.Pending = w.Bytes()
		q.Explored += int64(explored)
		q.Phase = 0
		e.Compute(float64(explored) * q.Cfg.OpsPerNode)
	}
}

// countFromPrefix counts completions given queens at (0, prefix[0]) and
// (1, prefix[1]), using the bitmask depth-first search, and the search-tree
// nodes it explores (the row-2 root included).
func countFromPrefix(n int, prefix [2]int) (count int64, explored int) {
	all := (1 << n) - 1
	c1 := 1 << prefix[0]
	c2 := 1 << prefix[1]
	// Validity beyond the generator's adjacency filter: same diagonal checks
	// are already excluded by construction (|a-b| != 1), columns differ.
	cols := c1 | c2
	diag1 := (c1<<1 | c2) << 1 & all
	diag2 := (c1>>1 | c2) >> 1
	return queensFrom(n, 2, all, cols, diag1, diag2)
}

// queensFrom counts the completions of a board whose rows above row are
// placed, and the nodes of the subtree rooted there. Row n-1 is folded into a
// popcount: each free square is one leaf at row n, a solution and a node.
func queensFrom(n, row, all, cols, diag1, diag2 int) (count int64, explored int) {
	if row == n {
		return 1, 1
	}
	free := all &^ (cols | diag1 | diag2)
	if row == n-1 {
		k := bits.OnesCount(uint(free))
		return int64(k), 1 + k
	}
	explored = 1
	for free != 0 {
		bit := free & -free
		free ^= bit
		c, e := queensFrom(n, row+1, all, cols|bit, (diag1|bit)<<1&all, (diag2|bit)>>1)
		count += c
		explored += e
	}
	return count, explored
}

// Snapshot captures the role state.
func (q *NQueens) Snapshot() []byte {
	w := codec.NewWriter()
	w.Int(q.NextTask)
	w.Int(q.Released)
	w.I64(q.Count)
	w.Int(q.Phase)
	w.Bool(q.Pending != nil)
	w.Bytes8(q.Pending)
	w.I64(q.Explored)
	return w.Bytes()
}

// StatePageSize exposes the snapshot's dirty-tracking granularity for
// incremental checkpointing (par.Paged): the role state is a handful of
// counters, so pages are small.
func (q *NQueens) StatePageSize() int { return 256 }

// Restore resets the role state from a snapshot.
func (q *NQueens) Restore(data []byte) {
	r := codec.NewReader(data)
	q.NextTask = r.Int()
	q.Released = r.Int()
	q.Count = r.I64()
	q.Phase = r.Int()
	hasPending := r.Bool()
	q.Pending = r.Bytes8()
	if !hasPending {
		q.Pending = nil
	}
	q.Explored = r.I64()
	if r.Err() != nil {
		panic(r.Err())
	}
}

// SequentialNQueens counts all solutions directly.
func SequentialNQueens(n int) int64 {
	all := (1 << n) - 1
	var count int64
	var rec func(cols, diag1, diag2 int)
	rec = func(cols, diag1, diag2 int) {
		if cols == all {
			count++
			return
		}
		free := all &^ (cols | diag1 | diag2)
		for free != 0 {
			bit := free & -free
			free ^= bit
			rec(cols|bit, (diag1|bit)<<1&all, (diag2|bit)>>1)
		}
	}
	rec(0, 0, 0)
	return count
}
