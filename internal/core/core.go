// Package core is the top-level entry point of the library: it assembles a
// simulated machine, attaches a checkpointing scheme, launches an
// application workload across the nodes, runs the simulation to completion,
// verifies the computed results against the workload's oracle, and returns
// the measurements.
//
// Everything the paper's experiments need is reachable from Run; the
// lower-level packages (sim, fabric, storage, par, mp, ckpt, apps) remain
// usable directly for custom setups such as fault-injection studies.
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
	// Interval or FirstAt is set (no checkpointing otherwise).
	Scheme         ckpt.Variant
	Interval       sim.Duration
	FirstAt        sim.Duration
	MaxCheckpoints int

	// Failover tunes the fault-tolerant coordinated variants' failure
	// detector (heartbeat cadence, rank-staggered suspicion timeout,
	// election vote window). Nil picks ckpt.DefaultFailoverConfig when the
	// scheme is a failover variant and is ignored otherwise.
	Failover *ckpt.FailoverConfig

	// SkipCheck disables result verification against the workload oracle.
	SkipCheck bool

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

// WithScheme returns a copy of c running the given scheme.
func (c Config) WithScheme(v ckpt.Variant, interval sim.Duration, maxCkpts int) Config {
	c.Scheme = v
	c.Interval = interval
	c.MaxCheckpoints = maxCkpts
	return c
}

// Result is everything measured in one run.
type Result struct {
	Workload string
	Scheme   string // "none" when checkpointing was off
	Interval sim.Duration

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
func (c Config) CheckpointingOn() bool { return c.Interval > 0 || c.FirstAt > 0 }

// Run executes one workload under cfg. The returned error covers simulation
// failures (deadlock, panics) and oracle mismatches.
func Run(wl apps.Workload, cfg Config) (Result, error) {
	// The perf sampler opens before the machine exists and finishes after
	// Shutdown (defers run LIFO), so the Setup and Shutdown phases cover
	// machine assembly and goroutine reaping respectively.
	ps := cfg.Perf.Begin(wl.Name, "none")
	defer ps.Finish()
	m := par.NewMachine(cfg.Machine)
	defer m.Shutdown()
	m.SetObserver(cfg.Obs)
	var armed *faults.Armed
	if cfg.Faults != nil {
		armed = cfg.Faults.Arm(m)
	}
	var sch ckpt.Scheme
	if cfg.CheckpointingOn() {
		fo := cfg.Failover
		if fo == nil && cfg.Scheme.Failover() {
			fo = ckpt.DefaultFailoverConfig()
		}
		sch = ckpt.New(cfg.Scheme, ckpt.Options{
			Interval:       cfg.Interval,
			FirstAt:        cfg.FirstAt,
			MaxCheckpoints: cfg.MaxCheckpoints,
			Failover:       fo,
		})
		cfg.Obs.SetScheme(sch.Name())
		ps.SetScheme(sch.Name())
		sch.Attach(m)
	}
	w := mp.NewWorld(m)
	if armed != nil && armed.Lossy() {
		w.EnableRetransmit(m.Retry.Base, m.Retry.Cap)
	}
	progs := make([]mp.Program, m.NumNodes())
	for rank := range progs {
		progs[rank] = wl.Make(rank, m.NumNodes())
		w.Launch(rank, progs[rank])
	}
	ps.EndSetup()
	if err := m.Run(); err != nil {
		return Result{}, fmt.Errorf("core: %s: %w", wl.Name, err)
	}
	m.CollectPerf(ps)
	ps.EndSim()
	if !cfg.SkipCheck && wl.Check != nil {
		if err := wl.Check(progs); err != nil {
			return Result{}, fmt.Errorf("core: %s: result verification failed: %w", wl.Name, err)
		}
	}
	ps.EndCheck()
	res := Result{
		Workload:       wl.Name,
		Scheme:         "none",
		Interval:       cfg.Interval,
		Exec:           sim.Duration(m.AppsFinished),
		StorageServers: m.NumStores(),
	}
	res.HostLinkBusy = m.Net.HostLinkStats().Busy
	for i, s := range m.Stores {
		res.StoragePeak += s.PeakOccupied()
		res.FilesAtEnd += s.NumFiles()
		_, _, _, busy := s.Stats()
		res.DiskBusy += busy
		if busy > res.MaxDiskBusy {
			res.MaxDiskBusy = busy
		}
		if lb := m.Net.HostLinkStatsOf(i).Busy; lb > res.MaxHostLinkBusy {
			res.MaxHostLinkBusy = lb
		}
	}
	res.NetMsgs, res.NetBytes = m.Net.TotalTraffic()
	if sch != nil {
		res.Scheme = sch.Name()
		res.Ckpt = sch.Stats()
		res.Records = sch.Records()
	}
	if armed != nil {
		res.Faults = armed.Report()
		res.Faults.Retransmits = w.Retransmits()
	}
	return res, nil
}
