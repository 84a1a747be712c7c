package bench

import (
	"context"
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/mp"
	"repro/internal/par"
	"repro/internal/rdg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// asyncProg is an asynchronous, irregularly communicating workload that
// provokes the domino effect under independent checkpointing: ranks compute
// for rank-dependent durations and exchange messages with a shifting partner
// pattern, so checkpoint intervals constantly have messages crossing them in
// both directions.
type asyncProg struct {
	Rank, Size, Iters int
	Iter, Phase       int
	Acc               int64
	Pad               []byte
}

// sendTarget is the rank a.Rank messages at iteration i; the map is a
// rotating permutation, so every rank also receives exactly one message per
// iteration index, from recvSource.
func (a *asyncProg) sendTarget(i int) int {
	shift := 1 + i%(a.Size-1)
	return (a.Rank + shift) % a.Size
}

func (a *asyncProg) recvSource(i int) int {
	shift := 1 + i%(a.Size-1)
	return (a.Rank + a.Size - shift) % a.Size
}

func (a *asyncProg) Run(e *mp.Env) {
	for a.Iter < a.Iters {
		if a.Phase == 0 {
			// Rank-dependent compute skews the processes' paces apart.
			e.Compute(2e5 * float64(1+a.Rank%3))
			w := codec.NewWriter()
			w.I64(int64(a.Rank ^ a.Iter))
			e.Send(a.sendTarget(a.Iter), 1, w.Bytes())
			a.Phase = 1
		}
		m := e.Recv(a.recvSource(a.Iter), 1)
		a.Acc += codec.NewReader(m.Data).I64()
		a.Phase = 0
		a.Iter++
	}
}

func (a *asyncProg) Snapshot() []byte {
	w := codec.NewWriter()
	w.Int(a.Iter)
	w.Int(a.Phase)
	w.I64(a.Acc)
	w.Bytes8(a.Pad)
	return w.Bytes()
}

func (a *asyncProg) Restore(b []byte) {
	r := codec.NewReader(b)
	a.Iter, a.Phase, a.Acc, a.Pad = r.Int(), r.Int(), r.I64(), r.Bytes8()
	if r.Err() != nil {
		panic(r.Err())
	}
}

// AsyncWorkload packages asyncProg; each rank sends exactly iters messages
// and receives exactly iters, so completion is the oracle. It is exported as
// the canonical domino-provoking workload: the recovery-guarantee tests in
// package rdg compare schemes on it.
func AsyncWorkload(iters, stateBytes int) apps.Workload {
	return apps.Workload{
		Name: fmt.Sprintf("ASYNC-%d", stateBytes),
		Make: func(rank, size int) mp.Program {
			return &asyncProg{Rank: rank, Size: size, Iters: iters, Pad: make([]byte, stateBytes)}
		},
		Check: func(progs []mp.Program) error {
			for rank, p := range progs {
				if a := p.(*asyncProg); a.Iter != iters {
					return fmt.Errorf("async: rank %d stopped at %d", rank, a.Iter)
				}
			}
			return nil
		},
	}
}

// dominoExperiment (E6) quantifies the recovery weakness of independent
// checkpointing that the paper argues qualitatively, and puts the
// communication-induced family next to it: for a range of checkpoint
// intervals, run the asynchronous workload under Indep and CIC, evaluate the
// recovery line at many hypothetical failure times, and report rollback
// distance, how often the domino effect reaches a process's initial state,
// and (for CIC) the price paid in forced checkpoints. The coordinated
// comparison line is always "roll back to the last committed round" (bounded
// by one interval plus the round latency).
func dominoExperiment(ctx context.Context, w io.Writer, cfg par.Config, quick bool, r *Runner) error {
	iters := pick(quick, 400, 1500)
	wl := AsyncWorkload(iters, 60_000)
	base, err := r.normal(ctx, cfg, wl)
	if err != nil {
		return err
	}

	// The (interval divisor, scheme) cells are independent simulations plus
	// an embarrassingly parallel failure-grid analysis, so fan them out and
	// render the table from index-ordered results.
	divs := []int{24, 12, 6, 3}
	schemes := []ckpt.Variant{ckpt.Indep, ckpt.CIC}
	type dominoRow struct {
		interval      sim.Duration
		ckpts, line   int
		meanRb, maxRb sim.Duration
		domino        int
		forced        string
	}
	const samples = 40
	cells := make([]Cell, 0, len(divs)*len(schemes))
	for _, div := range divs {
		for _, v := range schemes {
			cells = append(cells, Cell{App: wl.Name, Scheme: v.String(), Rep: div})
		}
	}
	outs, err := Cells(ctx, r, cells, func(_ context.Context, i int, c Cell) (dominoRow, error) {
		div, v := divs[i/len(schemes)], schemes[i%len(schemes)]
		interval := base / sim.Duration(div+1)
		res, err := core.Run(wl, core.Config{Machine: cfg, Scheme: v, Interval: interval})
		if err != nil {
			return dominoRow{}, err
		}
		// Evaluate hypothetical failures on a time grid across the run.
		n, recs := cfg.Fabric.Nodes(), res.Records
		final := rdg.FromRecords(n, recs)
		row := dominoRow{interval: interval, ckpts: len(recs), line: final.Retained(final.RecoveryLine())}
		for s := 1; s <= samples; s++ {
			failAt := sim.Time(res.Exec * sim.Duration(s) / (samples + 1))
			g := rdg.FromRecordsAt(n, recs, failAt)
			line := g.RecoveryLine()
			if g.Domino(line) {
				row.domino++
			}
			for _, d := range g.RollbackTime(line, failAt) {
				row.meanRb += d / sim.Duration(n*samples)
				if d > row.maxRb {
					row.maxRb = d
				}
			}
		}
		row.forced = "-"
		if v.CommunicationInduced() {
			row.forced = fmt.Sprintf("%d", res.Ckpt.ForcedCkpts)
		}
		r.Prog.logf("%s interval %v: %d ckpts, mean rollback %v", c.Name(), interval, len(recs), row.meanRb)
		return row, nil
	})
	if err != nil {
		return err
	}
	t := trace.NewTable("E6: recovery line vs checkpoint interval (asynchronous workload)",
		"Scheme", "Interval", "Ckpts taken", "Ckpts on line", "Mean rollback", "Max rollback", "Domino runs", "Forced").Align(2, 3, 4, 5, 6, 7)
	for i, o := range outs {
		t.Rowf(schemes[i%len(schemes)].String(), fmt.Sprintf("%.1fs", o.interval.Seconds()),
			o.ckpts, o.line,
			fmt.Sprintf("%.2fs", o.meanRb.Seconds()),
			fmt.Sprintf("%.2fs", o.maxRb.Seconds()),
			fmt.Sprintf("%d/%d", o.domino, samples),
			o.forced)
	}
	t.Write(w)
	fmt.Fprintln(w, "\nCoordinated checkpointing's rollback is bounded by one interval by")
	fmt.Fprintln(w, "construction; independent checkpointing can lose far more work, and can")
	fmt.Fprintln(w, "collapse to the initial state (the domino effect) when messages cross")
	fmt.Fprintln(w, "every checkpoint interval — exactly the paper's argument in §1/§4.")
	fmt.Fprintln(w, "Communication-induced checkpointing buys its bounded rollback (and a")
	fmt.Fprintln(w, "domino-free end state) with the forced checkpoints in the last column.")
	return nil
}
