package bench

import (
	"context"
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Breakdown decomposes one scheme's checkpointing overhead into the phases
// the observability layer records: where the extra time of a checkpointed run
// is actually spent. Phase columns are aggregate busy seconds summed over all
// nodes, so on an N-node machine they can exceed the wall-clock overhead (the
// phases run concurrently across nodes).
type Breakdown struct {
	Scheme      string
	Exec        sim.Duration
	OverheadPct float64

	Blocked   sim.Duration // application time lost to checkpointing (ckpt.blocked_time)
	Forced    sim.Duration // CIC forced checkpoints before message delivery (cic.forced)
	Sync      sim.Duration // round begin until the local safe point (ckpt.sync)
	MemCopy   sim.Duration // main-memory state copies (ckpt.memcopy)
	DiskWrite sim.Duration // durable state writes, queueing included (ckpt.disk_write)
	ChanWrite sim.Duration // channel-state log writes (ckpt.chan_write)
	TokenWait sim.Duration // NBMS staggering-token holds (ckpt.token_wait)
	HostWait  sim.Duration // traffic queueing for the host link (storage.hostlink_queue_wait)

	Obs *obs.Observer // the run's full observer, for traces and further digging
}

// MeasureBreakdown runs wl normally and then under each scheme with `ckpts`
// checkpoints at interval normal/(ckpts+1), collecting the phase breakdown of
// every checkpointed run through a fresh Observer of its own — so the scheme
// cells fan out over the pool and assemble in scheme order. It returns the
// normal execution time and one Breakdown per scheme.
func (r *Runner) MeasureBreakdown(ctx context.Context, cfg par.Config, wl apps.Workload, schemes []ckpt.Variant, ckpts int) (sim.Duration, []Breakdown, error) {
	base, err := r.normal(ctx, cfg, wl)
	if err != nil {
		return 0, nil, err
	}
	interval := base / sim.Duration(ckpts+1)
	r.Prog.logf("%-12s normal %8.2fs  (interval %.0fs)", wl.Name, base.Seconds(), interval.Seconds())
	cells := make([]Cell, len(schemes))
	for i, v := range schemes {
		cells[i] = Cell{App: wl.Name, Scheme: v.String()}
	}
	out, err := Cells(ctx, r, cells, func(_ context.Context, i int, c Cell) (Breakdown, error) {
		v := schemes[i]
		o := obs.New()
		res, err := core.Run(wl, core.Config{
			Machine:        cfg,
			Scheme:         v,
			Interval:       interval,
			MaxCheckpoints: ckpts,
			Obs:            o,
		})
		if err != nil {
			return Breakdown{}, err
		}
		r.Prog.logf("%-24s %8.2fs", c.Name(), res.Exec.Seconds())
		return Breakdown{
			Scheme:      v.String(),
			Exec:        res.Exec,
			OverheadPct: 100 * float64(res.Exec-base) / float64(base),
			Blocked:     res.Ckpt.AppBlocked,
			Forced:      o.SpanTotal("cic.forced"),
			Sync:        o.SpanTotal("ckpt.sync"),
			MemCopy:     o.SpanTotal("ckpt.memcopy"),
			DiskWrite:   o.SpanTotal("ckpt.disk_write"),
			ChanWrite:   o.SpanTotal("ckpt.chan_write"),
			TokenWait:   o.SpanTotal("ckpt.token_wait"),
			HostWait:    sim.Seconds(o.HistTotal("storage.hostlink_queue_wait")),
			Obs:         o,
		}, nil
	})
	if err != nil {
		return 0, nil, err
	}
	return base, out, nil
}

// WriteBreakdown renders the per-scheme overhead breakdown table.
func WriteBreakdown(w io.Writer, workload string, normal sim.Duration, bds []Breakdown) {
	t := trace.NewTable(
		fmt.Sprintf("Overhead breakdown: %s (normal %.2fs; phase columns are busy seconds summed over nodes)",
			workload, normal.Seconds()),
		"Scheme", "Exec(s)", "Ovh %", "Blocked", "Forced", "Sync", "MemCopy", "DiskWrite", "ChanWrite", "TokenWait", "HostWait").
		Align(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	for _, b := range bds {
		t.Rowf(b.Scheme,
			b.Exec.Seconds(), b.OverheadPct,
			b.Blocked.Seconds(), b.Forced.Seconds(), b.Sync.Seconds(), b.MemCopy.Seconds(),
			b.DiskWrite.Seconds(), b.ChanWrite.Seconds(), b.TokenWait.Seconds(),
			b.HostWait.Seconds())
	}
	t.Write(w)
}

// WriteMetricsSummary renders the observer's registry: counters summed over
// nodes, gauges as their last value per node summed, and histograms with
// count, mean and tail quantiles (duration histograms are in seconds).
func WriteMetricsSummary(w io.Writer, o *obs.Observer) {
	type agg struct {
		name  string
		kind  obs.Kind
		count int64
		value float64
		hist  *obs.Histogram
	}
	var order []string
	byName := map[string]*agg{}
	for _, m := range o.Snapshot() {
		a := byName[m.Key.Name]
		if a == nil {
			a = &agg{name: m.Key.Name, kind: m.Kind}
			byName[m.Key.Name] = a
			order = append(order, m.Key.Name)
		}
		switch m.Kind {
		case obs.KindCounter:
			a.count += m.Count
		case obs.KindGauge:
			a.value += m.Value
		case obs.KindHistogram:
			if a.hist == nil {
				a.hist = m.Hist.Clone()
			} else {
				a.hist.Merge(m.Hist)
			}
		}
	}
	ct := trace.NewTable(fmt.Sprintf("Counters and gauges (scheme %s, summed over nodes)", o.Scheme()),
		"Metric", "Value").Align(1)
	ht := trace.NewTable("Histograms (seconds, merged over nodes)",
		"Metric", "Count", "Mean", "p50", "p95", "p99").Align(1, 2, 3, 4, 5)
	for _, name := range order {
		a := byName[name]
		switch a.kind {
		case obs.KindCounter:
			ct.Rowf(a.name, fmt.Sprintf("%d", a.count))
		case obs.KindGauge:
			ct.Rowf(a.name, fmt.Sprintf("%.0f", a.value))
		case obs.KindHistogram:
			ht.Rowf(a.name, fmt.Sprintf("%d", a.hist.N),
				fmt.Sprintf("%.4f", a.hist.Mean()),
				fmt.Sprintf("%.4f", a.hist.Quantile(0.50)),
				fmt.Sprintf("%.4f", a.hist.Quantile(0.95)),
				fmt.Sprintf("%.4f", a.hist.Quantile(0.99)))
		}
	}
	ct.Write(w)
	fmt.Fprintln(w)
	ht.Write(w)
}
