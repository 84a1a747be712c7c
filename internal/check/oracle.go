package check

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/faults"
	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/perf"
	"repro/internal/sim"
)

// CellSpec names one oracle cell: a workload run under a scheme with a crash
// injected in stratum Point of Points (the fault-free execution is divided
// into Points equal windows; the exact instant inside the window is drawn
// from the cell seed's fault plan, so every region of the run gets crashed
// while each cell stays deterministically reproducible from its seed).
type CellSpec struct {
	Workload apps.Workload
	Scheme   ckpt.Variant
	Point    int
	Points   int
	Seed     uint64

	// Obs optionally instruments the cell's machine (single-cell repro mode;
	// an Observer must not be shared across concurrently running cells).
	Obs *obs.Observer

	// Perf optionally records the cell's host-side cost (wall-clock phases,
	// event throughput, allocations). Unlike Obs it is safe to share across
	// concurrent cells, but per-cell allocation attribution is exact only
	// when cells run serially; arming it never changes a cell's outcome.
	Perf *perf.Collector

	// FaultPlan, when set, builds the deterministic fault plan the cell arms
	// on its machine (storage-server outage windows and the like) from the
	// cell seed and the workload's fault-free execution time. The oracle's
	// own total crash still fires at the stratified point on top of it. The
	// baseline run stays unarmed — it defines what the faulted run must
	// still reproduce.
	FaultPlan func(seed uint64, horizon sim.Duration) *faults.Plan

	// KillPhase, when set, replaces the stratified total crash with a
	// targeted coordinator kill: rank 0 is crashed inside the named protocol
	// window (the first announcement of this phase, pushed a seed-drawn
	// jitter into the window), the failover schemes' election then resolves
	// the interrupted round, and only after a settle window covering
	// detection plus the vote wait are the survivors crashed and the machine
	// recovered — so the equivalence check also holds whatever the successor
	// decided (complete or abort) against the fault-free baseline. Point and
	// Points are ignored.
	KillPhase string
}

// CellResult summarizes a clean cell for reporting.
type CellResult struct {
	CrashAt   sim.Time
	Recovered bool
	Round     int   // coordinated: recovered round
	Line      []int // uncoordinated: restored recovery line
	Exec      sim.Duration
	Checks    int64

	// CrashRecords is the committed-checkpoint ledger as recovery saw it
	// (uncoordinated families only): the inputs Line was computed from, so
	// tests can independently re-derive and bound the recovery line.
	CrashRecords []ckpt.Record
}

// Oracle runs equivalence cells against per-workload fault-free baselines.
// One Oracle may serve many concurrent cells: the baseline cache is the only
// shared state and is computed at most once per workload.
type Oracle struct {
	Cfg par.Config

	mu   sync.Mutex
	base map[string]*baseline
}

func NewOracle(cfg par.Config) *Oracle {
	return &Oracle{Cfg: cfg, base: make(map[string]*baseline)}
}

// baseline is the canonical fault-free outcome of one workload: the final
// application states, the per-node per-sender delivery logs, and the
// execution time. It is scheme-independent — the reference run checkpoints
// nothing — which is exactly what makes it an oracle: any scheme, crashed
// anywhere and recovered, must reproduce it bit for bit.
type baseline struct {
	exec      sim.Duration
	finals    [][]byte
	delivered [][][]msgCopy
}

func (o *Oracle) baselineFor(wl apps.Workload) (*baseline, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if b, ok := o.base[wl.Name]; ok {
		return b, nil
	}
	b, err := o.runBaseline(wl)
	if err != nil {
		return nil, fmt.Errorf("fault-free baseline of %s: %w", wl.Name, err)
	}
	o.base[wl.Name] = b
	return b, nil
}

func (o *Oracle) runBaseline(wl apps.Workload) (*baseline, error) {
	m := par.NewMachine(o.Cfg)
	defer m.Shutdown()
	n := m.NumNodes()
	h := newHarness(n)
	w := mp.NewWorld(m)
	h.Attach(w)
	progs := make([]mp.Program, n)
	for rank := 0; rank < n; rank++ {
		progs[rank] = wl.Make(rank, n)
		w.Launch(rank, progs[rank])
	}
	if err := m.Run(); err != nil {
		return nil, err
	}
	if wl.Check != nil {
		if err := wl.Check(progs); err != nil {
			return nil, err
		}
	}
	b := &baseline{exec: sim.Duration(m.AppsFinished), delivered: h.delivered,
		finals: make([][]byte, n)}
	for rank, p := range progs {
		b.finals[rank] = p.Snapshot()
	}
	return b, nil
}

// crashPoint folds the cell seed's fault draw into the spec's stratum of the
// fault-free execution. Every cell crashes strictly before the fault-free
// completion time, and a checkpointing run can only be slower, so the crash
// always lands mid-run.
func crashPoint(spec CellSpec, exec sim.Duration) sim.Time {
	points := spec.Points
	if points < 1 {
		points = 1
	}
	width := exec / sim.Duration(points)
	if width < 1 {
		width = 1
	}
	draw := faults.Plan{Seed: spec.Seed, Horizon: exec}.CrashTimes(1)[0]
	at := sim.Time(sim.Duration(spec.Point)*width + sim.Duration(draw)%width)
	if at < 1 {
		at = 1
	}
	return at
}

// horizonExecs is how many fault-free execution times a cell may run in
// virtual time before it is reported as never finishing. A crash and its
// recovery cost far more than a few: the slowest passing cell of the full
// sweep (RING-60000B-i80 under CIC, its checkpoints outlasting the interval)
// finishes at 32 of them, a quick ring's coordinator-kill cells at 26.
const horizonExecs = 100

// name identifies the cell in a report that need not pass through Sweep's
// runner, which prefixes the bench.Cell name and seed.
func (spec CellSpec) name() string {
	where := fmt.Sprintf("stratum %d/%d", spec.Point, spec.Points)
	if spec.KillPhase != "" {
		where = "kill " + spec.KillPhase
	}
	return fmt.Sprintf("cell %s/%v %s seed %#x", spec.Workload.Name, spec.Scheme, where, spec.Seed)
}

// RunCell executes one oracle cell: run the workload under the scheme, crash
// every node at the stratified point, recover from stable storage, run to
// completion, and hold the outcome against the fault-free baseline while the
// invariant auditor rides along on every commit. The returned error carries
// every violated invariant; a run still going horizonExecs fault-free
// execution times in is stopped and reported as recover.terminates.
func (o *Oracle) RunCell(spec CellSpec) (CellResult, error) {
	var res CellResult
	b, err := o.baselineFor(spec.Workload)
	if err != nil {
		return res, err
	}
	n := o.Cfg.Fabric.Nodes()
	interval := b.exec / 8
	if interval < 1 {
		interval = 1
	}
	opt := ckpt.Options{Interval: interval}
	if !spec.Scheme.Coordinated() {
		// Stagger the autonomous timers so checkpoints interleave with
		// communication from the start — the interesting regime for the
		// dependency-graph invariants.
		opt.Spread = interval / sim.Duration(2*n)
	}
	if spec.Scheme.Failover() {
		opt.Failover = ckpt.DefaultFailoverConfig()
	}
	if spec.KillPhase == "" {
		res.CrashAt = crashPoint(spec, b.exec)
	}

	// The sampler covers the cell machine only (the cached baseline is shared
	// across cells); registered before the Shutdown defer so its Finish —
	// defers run LIFO — attributes the goroutine reaping to the Shutdown
	// phase.
	ps := spec.Perf.Begin(spec.Workload.Name, spec.Scheme.String())
	defer ps.Finish()
	m := par.NewMachine(o.Cfg)
	defer m.Shutdown()
	if spec.Obs != nil {
		m.SetObserver(spec.Obs)
	}
	if spec.FaultPlan != nil {
		if plan := spec.FaultPlan(spec.Seed, b.exec); plan != nil {
			plan.Arm(m)
		}
	}
	h := newHarness(n)
	a := newAudit(m, h, spec.Scheme)
	cur := make([]*wrapped, n)
	factory := func(rank int) mp.Program {
		wp := &wrapped{inner: spec.Workload.Make(rank, n), h: h, rank: rank}
		cur[rank] = wp
		return wp
	}

	sch := ckpt.New(spec.Scheme, opt)
	sch.Attach(m)
	sch.SetCommitHook(a.onCommit)
	w := mp.NewWorld(m)
	h.Attach(w)
	for rank := 0; rank < n; rank++ {
		w.Launch(rank, factory(rank))
	}
	ps.EndSetup()

	repair := interval / 4
	if repair < 1 {
		repair = 1
	}
	recoverAll := func() {
		m.Eng.After(repair, func() {
			m.Eng.Spawn("check-settle", func(p *sim.Proc) {
				// The storage server outlives the crash and keeps draining
				// requests the dead incarnation already queued: a checkpoint
				// write in flight at the crash can still become durable
				// behind the recovery driver's back. Recover only once the
				// server is provably idle, as a real repair crew would fsck
				// before restarting anything.
				o.settleStorage(p, m)
				sp := m.Obs.Start(0, obs.TidCoord, "check.recover")
				if spec.Scheme.Coordinated() {
					res.Round = o.recoverCoordinated(m, spec.Scheme, opt, h, a, factory)
				} else {
					res.Line, res.CrashRecords = o.recoverUncoordinated(m, spec.Scheme, opt, h, a, factory)
				}
				sp.End()
			})
		})
	}
	if spec.KillPhase != "" {
		o.armCoordKill(m, spec, &res, interval, recoverAll)
	} else {
		m.Eng.At(res.CrashAt, func() {
			if m.AppsLive() == 0 {
				// The scheme's overhead was below the stratum's draw and the run
				// already finished; the cell degrades to a fault-free
				// equivalence check.
				return
			}
			m.Obs.InstantArg(0, obs.TidCoord, "check.crash", "at_us", int64(res.CrashAt))
			m.Obs.Add(0, "check.crashes", 1)
			m.CrashAll()
			res.Recovered = true
			recoverAll()
		})
	}

	// Counted from at least a second, which outlasts the coordinator-kill
	// cells' fixed settle window whatever the workload.
	horizon := sim.Time(horizonExecs * max(b.exec, sim.Second))
	if err := m.Eng.RunUntil(horizon); err == sim.ErrHorizon {
		// The schemes' timers would keep the engine busy for ever: a recovered
		// program that never finishes is a violation, not a hang.
		a.violatef("recover.terminates", "%s: still running at %v, %d fault-free executions in, with %d application(s) live",
			spec.name(), horizon, horizonExecs, m.AppsLive())
		return res, fmt.Errorf("crash at %v: %w", res.CrashAt, a.err())
	} else if err != nil {
		return res, fmt.Errorf("crash at %v: %w", res.CrashAt, err)
	}
	m.CollectPerf(ps)
	ps.EndSim()
	res.Exec = sim.Duration(m.AppsFinished)

	a.finish()
	if spec.Workload.Check != nil {
		progs := make([]mp.Program, n)
		for rank, wp := range cur {
			progs[rank] = wp.inner
		}
		if err := spec.Workload.Check(progs); err != nil {
			a.violatef("equiv.app-check", "%v", err)
		}
	}
	equivalence(a, b, h, cur)
	ps.EndCheck()
	m.Obs.Add(0, "check.invariant_checks", a.checks)
	res.Checks = a.checks
	if err := a.err(); err != nil {
		return res, fmt.Errorf("crash at %v: %w", res.CrashAt, err)
	}
	return res, nil
}

// armCoordKill arms a KillPhase cell's targeted coordinator crash: rank 0
// dies at the first announcement of the named protocol phase. The wide
// windows — "round" (the checkpoint writes) and "commit" (ordinary
// execution until the next round) — are additionally pushed up to a quarter
// checkpoint interval deep by the cell seed's dedicated target stream, so
// different seeds crash at different depths while each cell stays
// reproducible; the mid-protocol windows ("acks", "precommit", "meta") are
// only message-latencies wide, so those kills fire at the announcement
// itself — jitter would throw them past the window and blur which
// resolution the cell pins. The workload cannot finish
// without rank 0; after a settle window sized to the failure detector's
// worst case (rank 1's suspicion deadline plus the election vote wait, with
// slack for the successor's round-record write) the survivors are crashed
// and the standard recovery driver takes over, so the equivalence check
// holds whatever the successor decided — completed or aborted round —
// against the fault-free baseline. If the run finishes before the phase ever
// fires, the cell degrades to a fault-free equivalence check.
func (o *Oracle) armCoordKill(m *par.Machine, spec CellSpec, res *CellResult,
	interval sim.Duration, recoverAll func()) {
	fo := ckpt.DefaultFailoverConfig()
	settle := fo.Timeout + fo.ElectWait + 2*sim.Second
	var jitter sim.Duration
	if spec.KillPhase == "round" || spec.KillPhase == "commit" {
		jitter = interval / 4
	}
	plan := faults.Plan{
		Seed: spec.Seed,
		Targets: []faults.TargetedCrash{
			{Rank: 0, Phase: spec.KillPhase, JitterMax: jitter},
		},
		OnCrash: func(node int) {
			res.CrashAt = m.Eng.Now()
			m.Obs.InstantArg(node, obs.TidCoord, "check.kill", "at_us", int64(res.CrashAt))
			m.Obs.Add(node, "check.crashes", 1)
			m.CrashNode(node)
			res.Recovered = true
			m.Eng.After(settle, func() {
				m.CrashAll()
				recoverAll()
			})
		},
	}
	plan.Arm(m)
}

// settleStorage returns once every stable-storage server has drained every
// request of the dead incarnation. QueueLen does not count the request in
// service, so one idle sample is not enough: two consecutive idle samples a
// full request-service bound apart guarantee any in-service request finished
// in between — and nothing new can arrive, every client is dead.
func (o *Oracle) settleStorage(p *sim.Proc, m *par.Machine) {
	st := o.Cfg.Storage
	bound := st.ReqOverhead + st.AppendOverhead + st.MetaOverhead + st.CreateOverhead +
		sim.BytesAt(o.Cfg.CkptImageBytes+128<<10, st.WriteBandwidth)
	for quiet := 0; quiet < 2; {
		p.Sleep(bound)
		if m.StorageQueueLen() == 0 {
			quiet++
		} else {
			quiet = 0
		}
	}
}

// equivalence asserts the crashed-and-recovered run reproduced the
// fault-free baseline exactly: final application states byte-identical, and
// every rank consumed, per sender, the identical message sequence.
func equivalence(a *audit, b *baseline, h *Harness, cur []*wrapped) {
	for rank, wp := range cur {
		a.assert(bytes.Equal(wp.inner.Snapshot(), b.finals[rank]), "equiv.final-state",
			"rank %d final state differs from the fault-free run", rank)
	}
	for rank := range cur {
		for src := range cur {
			got, want := h.delivered[rank][src], b.delivered[rank][src]
			if !a.assert(len(got) == len(want), "equiv.delivery-log",
				"rank %d consumed %d message(s) from %d, fault-free run consumed %d",
				rank, len(got), src, len(want)) {
				continue
			}
			for k := range want {
				if !a.assert(sameMsg(got[k], want[k]), "equiv.delivery-log",
					"rank %d: message %d from %d differs from the fault-free run", rank, k, src) {
					break
				}
			}
		}
	}
}
