package mp

import (
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/par"
	"repro/internal/sim"
)

// testProg adapts a func to the Program interface with trivial state.
type testProg struct {
	run   func(e *Env)
	state []byte
}

func (t *testProg) Run(e *Env)          { t.run(e) }
func (t *testProg) Snapshot() []byte    { return t.state }
func (t *testProg) Restore(data []byte) { t.state = data }

// launchAll starts one testProg per rank running body and runs the world.
func launchAll(t *testing.T, body func(e *Env)) *par.Machine {
	t.Helper()
	m := par.NewMachine(par.DefaultConfig())
	w := NewWorld(m)
	for r := 0; r < m.NumNodes(); r++ {
		w.Launch(r, &testProg{run: body})
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSendRecvFIFO(t *testing.T) {
	var got []int
	launchAll(t, func(e *Env) {
		switch e.Rank {
		case 0:
			for i := 0; i < 10; i++ {
				e.Send(1, 5, EncodeInts([]int{i}))
			}
		case 1:
			for i := 0; i < 10; i++ {
				m := e.Recv(0, 5)
				got = append(got, DecodeInts(m.Data)[0])
			}
		}
	})
	if len(got) != 10 {
		t.Fatalf("received %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order %v", got)
		}
	}
}

func TestRecvWildcardSkipsInternalTags(t *testing.T) {
	var tags []int
	launchAll(t, func(e *Env) {
		switch e.Rank {
		case 0:
			e.Send(1, 3, nil)
			e.Send(1, 9, nil)
		case 1:
			for i := 0; i < 2; i++ {
				m := e.Recv(Any, Any)
				tags = append(tags, m.Tag)
			}
		default:
			// Other ranks idle; a barrier would need them all.
		}
	})
	if len(tags) != 2 || tags[0] != 3 || tags[1] != 9 {
		t.Fatalf("tags = %v", tags)
	}
}

func TestRecvSelectiveByTag(t *testing.T) {
	var order []int
	launchAll(t, func(e *Env) {
		switch e.Rank {
		case 0:
			e.Send(1, 1, nil)
			e.Send(1, 2, nil)
		case 1:
			m2 := e.Recv(0, 2)
			m1 := e.Recv(0, 1)
			order = append(order, m2.Tag, m1.Tag)
		}
	})
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("order = %v", order)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	var after []sim.Time
	var slowest sim.Time
	launchAll(t, func(e *Env) {
		d := sim.Duration(e.Rank) * sim.Second
		e.P.Sleep(d)
		if e.P.Now() > slowest {
			slowest = e.P.Now()
		}
		e.Barrier()
		after = append(after, e.P.Now())
	})
	if len(after) != 8 {
		t.Fatalf("barrier exits = %d", len(after))
	}
	for _, ti := range after {
		if ti < slowest {
			t.Fatalf("rank left barrier at %v before slowest entry %v", ti, slowest)
		}
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	for root := 0; root < 8; root++ {
		root := root
		var got [8]string
		launchAll(t, func(e *Env) {
			var data []byte
			if e.Rank == root {
				data = []byte(fmt.Sprintf("payload-from-%d", root))
			}
			out := e.Bcast(root, data)
			got[e.Rank] = string(out)
		})
		want := fmt.Sprintf("payload-from-%d", root)
		for r, s := range got {
			if s != want {
				t.Fatalf("root %d: rank %d got %q", root, r, s)
			}
		}
	}
}

func TestReduceSum(t *testing.T) {
	var res []float64
	launchAll(t, func(e *Env) {
		vals := []float64{float64(e.Rank), 1}
		out := e.ReduceF64(0, vals, func(a, b float64) float64 { return a + b })
		if e.Rank == 0 {
			res = out
		} else if out != nil {
			t.Errorf("non-root got non-nil reduce result")
		}
	})
	if len(res) != 2 || res[0] != 28 || res[1] != 8 { // 0+..+7=28
		t.Fatalf("reduce = %v", res)
	}
}

func TestAllReduceMax(t *testing.T) {
	var got [8]float64
	launchAll(t, func(e *Env) {
		out := e.AllReduceF64([]float64{float64(e.Rank * e.Rank)}, func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		})
		got[e.Rank] = out[0]
	})
	for r, v := range got {
		if v != 49 {
			t.Fatalf("rank %d allreduce = %v", r, v)
		}
	}
}

func TestGather(t *testing.T) {
	var res [][]byte
	launchAll(t, func(e *Env) {
		out := e.Gather(2, []byte{byte(e.Rank * 3)})
		if e.Rank == 2 {
			res = out
		}
	})
	if len(res) != 8 {
		t.Fatalf("gather size %d", len(res))
	}
	for r, b := range res {
		if len(b) != 1 || b[0] != byte(r*3) {
			t.Fatalf("gather[%d] = %v", r, b)
		}
	}
}

func TestComputeChargesTime(t *testing.T) {
	var took sim.Duration
	launchAll(t, func(e *Env) {
		if e.Rank != 0 {
			return
		}
		start := e.P.Now()
		e.Compute(2e7) // 2s at 10 Mops/s
		took = e.P.Now().Sub(start)
	})
	if took != 2*sim.Second {
		t.Fatalf("compute took %v, want 2s", took)
	}
}

// actionRecorder verifies safe-point actions run during blocking Recv and
// sliced Compute.
type actionRecorder struct {
	ranAt sim.Time
}

func (a *actionRecorder) Run(p *sim.Proc, n *par.Node) { a.ranAt = p.Now() }

func TestSafePointDuringBlockedRecv(t *testing.T) {
	m := par.NewMachine(par.DefaultConfig())
	w := NewWorld(m)
	rec := &actionRecorder{}
	w.Launch(0, &testProg{run: func(e *Env) {
		m := e.Recv(Any, Any) // blocks until t=5s
		_ = m
	}})
	w.Launch(1, &testProg{run: func(e *Env) {
		e.P.Sleep(5 * sim.Second)
		e.Send(0, 0, nil)
	}})
	m.Eng.At(sim.Time(2*sim.Second), func() { m.Nodes[0].PostAction(rec) })
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.ranAt < sim.Time(2*sim.Second) || rec.ranAt > sim.Time(2*sim.Second+sim.Millisecond) {
		t.Fatalf("action ran at %v, want ≈2s (during blocked Recv)", rec.ranAt)
	}
}

func TestSafePointDuringLongCompute(t *testing.T) {
	m := par.NewMachine(par.DefaultConfig())
	w := NewWorld(m)
	rec := &actionRecorder{}
	w.Launch(0, &testProg{run: func(e *Env) {
		e.Compute(1e8) // 10s of compute, sliced at 50ms
	}})
	m.Eng.At(sim.Time(3*sim.Second), func() { m.Nodes[0].PostAction(rec) })
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.ranAt < sim.Time(3*sim.Second) || rec.ranAt > sim.Time(3*sim.Second+100*sim.Millisecond) {
		t.Fatalf("action ran at %v, want within one compute slice of 3s", rec.ranAt)
	}
}

func TestPiggybackMetaAndConsumeHook(t *testing.T) {
	m := par.NewMachine(par.DefaultConfig())
	w := NewWorld(m)
	m.Nodes[0].OutMeta = func() par.Piggyback {
		var pb par.Piggyback
		pb[par.PBInterval] = 7
		pb[par.PBCIC] = 3
		return pb
	}
	var consumed []uint64
	var preConsumed []uint64
	m.Nodes[1].PreConsume = func(p *sim.Proc, src int, meta par.Piggyback) {
		if src == 0 {
			preConsumed = append(preConsumed, meta[par.PBCIC])
		}
	}
	m.Nodes[1].OnConsume = func(src int, meta par.Piggyback, ssn uint64) {
		if src == 0 {
			consumed = append(consumed, meta[par.PBInterval])
		}
	}
	w.Launch(0, &testProg{run: func(e *Env) {
		e.Send(1, 0, nil)
	}})
	w.Launch(1, &testProg{run: func(e *Env) {
		if got := e.Recv(0, 0).Meta; got[par.PBInterval] != 7 || got[par.PBCIC] != 3 {
			t.Errorf("meta = %v", got)
		}
	}})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(consumed) != 1 || consumed[0] != 7 {
		t.Fatalf("consumed = %v", consumed)
	}
	if len(preConsumed) != 1 || preConsumed[0] != 3 {
		t.Fatalf("preConsumed = %v (PreConsume must run before delivery)", preConsumed)
	}
}

func TestDeterministicWorldRuns(t *testing.T) {
	run := func() sim.Time {
		m := par.NewMachine(par.DefaultConfig())
		w := NewWorld(m)
		for r := 0; r < m.NumNodes(); r++ {
			w.Launch(r, &testProg{run: func(e *Env) {
				for it := 0; it < 5; it++ {
					e.Compute(1e5 * float64(e.Rank+1))
					left := (e.Rank + 7) % 8
					right := (e.Rank + 1) % 8
					e.Send(right, 1, make([]byte, 256))
					e.Recv(left, 1)
					e.Barrier()
				}
			}})
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.AppsFinished
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

// EncodeInts encodes an []int for the tests' messages.
func EncodeInts(vs []int) []byte {
	w := codec.NewWriter()
	w.Ints(vs)
	return w.Bytes()
}

// DecodeInts decodes a vector encoded by EncodeInts.
func DecodeInts(b []byte) []int {
	r := codec.NewReader(b)
	vs := r.Ints()
	if r.Err() != nil {
		panic("mp: corrupt int vector: " + r.Err().Error())
	}
	return vs
}
