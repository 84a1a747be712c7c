// Package core is the top-level entry point of the library: it assembles a
// simulated machine, attaches a checkpointing scheme, launches an
// application workload across the nodes, runs the simulation to completion,
// verifies the computed results against the workload's oracle, and returns
// the measurements.
//
// Everything the paper's experiments need is reachable from Run; Start and
// Finish are its two halves, for callers that schedule a crash or attach a
// collector in between. Start is the one launch body: the tables, every
// experiment and the correctness oracle's cells (package check) all assemble
// their machines through it, and KillCoordinator is the one coordinator kill
// that experiment E15 and the oracle's coordinator-kill cells schedule
// between the halves. The lower-level packages (sim, fabric, storage, par,
// mp, ckpt, apps) remain usable directly for custom setups such as
// fault-injection studies.
package core

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/faults"
	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/perf"
	"repro/internal/sim"
)

// Config selects the machine and the checkpointing scheme for a run.
type Config struct {
	Machine par.Config

	// Scheme selects the checkpointing variant; it is ignored unless
	// Interval is set (no checkpointing otherwise).
	Scheme         ckpt.Variant
	Interval       sim.Duration
	MaxCheckpoints int

	// Spread staggers the local-timer schemes' first checkpoints: rank k's
	// timer first fires at Interval + k*Spread (ckpt.Options.Spread).
	Spread sim.Duration

	// CommitHook, when set, observes every commit of the scheme and of every
	// scheme recovered from Launched.Options (ckpt.Options.CommitHook): the
	// correctness oracle's auditor rides here.
	CommitHook ckpt.CommitHook

	// Obs, when non-nil, collects metrics, phase spans and trace events for
	// the run. The default (nil) disables all instrumentation at zero cost
	// and — by construction — leaves the virtual schedule untouched.
	Obs *obs.Observer

	// Faults, when non-nil, arms the deterministic fault-injection plan on
	// the machine before launch and, when the plan makes links lossy, slides
	// the ack/retransmit transport beneath the message layer. The default
	// (nil) leaves every fault hook unarmed: the run is byte-identical to a
	// build without the faults package.
	Faults *faults.Plan

	// Perf, when non-nil, records the run's host-side cost (wall-clock per
	// phase, event-loop throughput, allocations, codec bytes) into the
	// collector. Unlike Obs this measures real time, not virtual time; like
	// Obs, nil disables it at zero cost and arming it leaves the simulated
	// schedule untouched.
	Perf *perf.Collector
}

// Default returns a configuration of the paper's testbed machine with no
// checkpointing.
func Default() Config { return Config{Machine: par.DefaultConfig()} }

// Result is everything measured in one run.
type Result struct {
	Workload string
	Scheme   string // "none" when checkpointing was off

	Exec sim.Duration // execution time (launch to last application finish)

	Ckpt ckpt.Stats // zero value when checkpointing was off

	HostLinkBusy sim.Duration // mesh→host busy time of the first host link
	DiskBusy     sim.Duration // total stable-storage service busy time, all servers
	StoragePeak  int64        // peak bytes durably occupied, summed over servers
	FilesAtEnd   int          // durable files when the run completed, all servers
	NetMsgs      int64        // total messages injected into the fabric
	NetBytes     int64

	// Per-server aggregates of the sharded-storage machine; on the default
	// single-server machine MaxDiskBusy == DiskBusy and MaxHostLinkBusy ==
	// HostLinkBusy. The busiest single server (and its host link) is where
	// the checkpoint traffic bottleneck sits — the quantity the scaling
	// experiment tracks as storage is sharded.
	StorageServers  int          // number of stable-storage servers
	MaxDiskBusy     sim.Duration // busiest single server's service time
	MaxHostLinkBusy sim.Duration // busiest host link's mesh→host busy time

	Faults faults.Report // injected-fault and recovery-action tallies (zero when unarmed)

	Records []ckpt.Record // committed checkpoints
}

// CheckpointingOn reports whether cfg runs a scheme.
func (c Config) CheckpointingOn() bool { return c.Interval > 0 }

// Run executes one workload under cfg. The returned error covers simulation
// failures (deadlock, panics) and oracle mismatches.
func Run(wl apps.Workload, cfg Config) (Result, error) { return Start(wl, cfg).Finish() }

// Launched is a machine assembled, its scheme attached and every rank
// launched, but not yet run: the seam where a caller schedules a crash and
// its recovery, attaches a garbage collector or arms a targeted fault before
// Finish runs the simulation. Every Launched must be finished, or its machine
// shut down; Finish is what reaps the machine's processes. A caller that
// bounds the run in virtual time drives M.Eng.RunUntil itself first, as the
// oracle does, and Finish then only collects.
type Launched struct {
	M       *par.Machine
	Scheme  ckpt.Scheme  // nil when checkpointing is off
	Options ckpt.Options // what Scheme was built with; a recovery restarts the scheme from it
	World   *mp.World
	Program func(rank int) mp.Program // a fresh program for rank, as launched

	wl    apps.Workload
	ps    *perf.RunSampler
	armed *faults.Armed
}

// Start assembles the machine cfg describes, attaches its scheme and fault
// plan, and launches wl on every rank.
func Start(wl apps.Workload, cfg Config) *Launched {
	// The perf sampler opens before the machine exists and Finish closes it
	// after Shutdown, so the Setup and Shutdown phases cover machine assembly
	// and goroutine reaping respectively.
	s := &Launched{wl: wl, ps: cfg.Perf.Begin(wl.Name, "none")}
	m := par.NewMachine(cfg.Machine)
	s.M = m
	m.SetObserver(cfg.Obs)
	if cfg.Faults != nil {
		s.armed = cfg.Faults.Arm(m)
	}
	if cfg.CheckpointingOn() {
		s.Options = ckpt.Options{
			Interval:       cfg.Interval,
			MaxCheckpoints: cfg.MaxCheckpoints,
			Spread:         cfg.Spread,
			CommitHook:     cfg.CommitHook,
		}
		s.Scheme = ckpt.New(cfg.Scheme, s.Options)
		cfg.Obs.SetScheme(cfg.Scheme.String())
		s.ps.SetScheme(cfg.Scheme.String())
		s.Scheme.Attach(m)
	}
	s.World = mp.NewWorld(m)
	if s.armed != nil && s.armed.Lossy() {
		s.World.EnableRetransmit(m.Retry.Base, m.Retry.Cap)
	}
	s.Program = func(rank int) mp.Program { return wl.Make(rank, m.NumNodes()) }
	for rank := range m.Nodes {
		s.World.Launch(rank, s.Program(rank))
	}
	s.ps.EndSetup()
	return s
}

// KillCoordinator arms the coordinator kill: rank 0 dies at the first
// announcement of phase (a ckpt.CoordPhases name), pushed a uniform draw of
// up to jitter from seed's target stream into the window the phase opens.
// onKill runs just before the crash. After ckpt.FailoverSettle — the failure
// detector's worst case plus the election vote wait, with slack for the
// successor's round record — settle runs and the survivors are crashed,
// leaving the machine to the caller's recovery, which settle schedules. A
// run that finishes before the phase fires is never killed.
func (s *Launched) KillCoordinator(phase string, jitter sim.Duration, seed uint64, onKill, settle func()) {
	m := s.M
	faults.Plan{
		Seed:    seed,
		Targets: []faults.TargetedCrash{{Rank: 0, Phase: phase, JitterMax: jitter}},
		OnCrash: func(node int) {
			onKill()
			m.CrashNode(node)
			m.Eng.After(ckpt.FailoverSettle, func() {
				settle()
				m.CrashAll()
			})
		},
	}.Arm(m)
}

// Finish runs the simulation to completion, verifies the programs the nodes
// hold at the end against the workload's oracle — after a crash those are the
// recovered incarnations, not the ones Start launched — and collects the
// measurements.
func (s *Launched) Finish() (Result, error) {
	m, wl, ps := s.M, s.wl, s.ps
	defer ps.Finish()
	defer m.Shutdown()
	if err := m.Run(); err != nil {
		return Result{}, fmt.Errorf("core: %s: %w", wl.Name, err)
	}
	m.CollectPerf(ps)
	ps.EndSim()
	if wl.Check != nil {
		progs := make([]mp.Program, m.NumNodes())
		for rank, n := range m.Nodes {
			prog, ok := n.Snap.(mp.Program)
			if !ok {
				return Result{}, fmt.Errorf("core: %s: rank %d crashed and was never recovered", wl.Name, rank)
			}
			progs[rank] = prog
		}
		if err := wl.Check(progs); err != nil {
			return Result{}, fmt.Errorf("core: %s: result verification failed: %w", wl.Name, err)
		}
	}
	ps.EndCheck()
	res := Result{
		Workload:       wl.Name,
		Scheme:         "none",
		Exec:           sim.Duration(m.AppsFinished),
		StorageServers: m.NumStores(),
	}
	res.HostLinkBusy = m.Net.HostLinkStats().Busy
	for i, st := range m.Stores {
		res.StoragePeak += st.PeakOccupied()
		res.FilesAtEnd += st.NumFiles()
		_, _, _, busy := st.Stats()
		res.DiskBusy += busy
		if busy > res.MaxDiskBusy {
			res.MaxDiskBusy = busy
		}
		if lb := m.Net.HostLinkStatsOf(i).Busy; lb > res.MaxHostLinkBusy {
			res.MaxHostLinkBusy = lb
		}
	}
	res.NetMsgs, res.NetBytes = m.Net.TotalTraffic()
	if s.Scheme != nil {
		res.Scheme = s.Scheme.Variant().String()
		res.Ckpt = s.Scheme.Stats()
		res.Records = s.Scheme.Records()
	}
	if s.armed != nil {
		res.Faults = s.armed.Report()
		res.Faults.Retransmits = s.World.Retransmits()
	}
	return res, nil
}
