package bench

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/codec"
	"repro/internal/mp"
)

// ringState is a synthetic iterative workload used by the calibration
// experiments: a neighbour exchange around a ring with a configurable state
// footprint, fully phase-encoded so it is also recovery-consistent.
type ringState struct {
	Rank, Size, Iters int
	PerIterOps        float64

	Iter  int
	Phase int
	Acc   int64
	Pad   []byte
}

func (r *ringState) Run(e *mp.Env) {
	right := (r.Rank + 1) % r.Size
	left := (r.Rank + r.Size - 1) % r.Size
	for r.Iter < r.Iters {
		if r.Phase == 0 {
			e.Compute(r.PerIterOps)
			w := codec.NewWriter()
			w.I64(int64(r.Rank+1) * int64(r.Iter+1))
			e.Send(right, 1, w.Bytes())
			r.Phase = 1
		}
		m := e.Recv(left, 1)
		r.Acc += codec.NewReader(m.Data).I64()
		r.Phase = 0
		r.Iter++
	}
}

func (r *ringState) Snapshot() []byte {
	w := codec.NewWriter()
	w.Int(r.Iter)
	w.Int(r.Phase)
	w.I64(r.Acc)
	w.Bytes8(r.Pad)
	return w.Bytes()
}

func (r *ringState) Restore(data []byte) {
	rd := codec.NewReader(data)
	r.Iter = rd.Int()
	r.Phase = rd.Int()
	r.Acc = rd.I64()
	r.Pad = rd.Bytes8()
	if rd.Err() != nil {
		panic(rd.Err())
	}
}

// syntheticWorkload is the calibration experiments' ring: 600 iterations
// of 5e5 operations per node, named by its per-node state size alone. The
// ring verifies however many ranks ran it, so E10 runs it on every mesh.
func syntheticWorkload(stateBytes int) apps.Workload {
	wl := RingWorkload(stateBytes, 600, 5e5)
	wl.Name = fmt.Sprintf("RING-%dB", stateBytes)
	return wl
}

// RingWorkload exposes the ring workload with every knob open — state
// footprint, iteration count and per-iteration compute — so the correctness
// explorer can run many short, fully deterministic cells. The oracle relies
// on two properties the ring has by construction: its message contents are
// a pure function of (rank, iteration), so delivery logs from different
// runs are comparable byte for byte, and the phase-encoded state makes any
// over- or under-rollback surface as a wrong accumulator in Check.
func RingWorkload(stateBytes, iters int, perIterOps float64) apps.Workload {
	wl := RingWorkloadN(8, stateBytes, iters, perIterOps)
	wl.Name = fmt.Sprintf("RING-%dB-i%d", stateBytes, iters)
	return wl
}

// RingWorkloadN is RingWorkload generalized to an n-node machine; the scaling
// experiment runs it on meshes far past the paper's 8 nodes. The node count is
// part of the name so cells from different machine sizes never collide in a
// report. RingWorkload keeps its shorter historical name for the default
// 8-node machine so existing cell names (CI seedlists, -cell reproductions)
// stay valid.
func RingWorkloadN(n, stateBytes, iters int, perIterOps float64) apps.Workload {
	return apps.Workload{
		Name: fmt.Sprintf("RING-%dB-i%d-n%d", stateBytes, iters, n),
		Make: func(rank, size int) mp.Program {
			return &ringState{Rank: rank, Size: size, Iters: iters, PerIterOps: perIterOps,
				Pad: make([]byte, stateBytes)}
		},
		Check: func(progs []mp.Program) error {
			// The ring size is however many ranks actually ran, not the n the
			// workload was named for — so the same workload verifies correctly
			// on any machine (-topo overrides the mesh under every experiment).
			size := len(progs)
			for rank, p := range progs {
				r := p.(*ringState)
				left := (rank + size - 1) % size
				var want int64
				for i := 0; i < iters; i++ {
					want += int64(left+1) * int64(i+1)
				}
				if r.Acc != want {
					return fmt.Errorf("ring: rank %d acc = %d, want %d", rank, r.Acc, want)
				}
			}
			return nil
		},
	}
}
