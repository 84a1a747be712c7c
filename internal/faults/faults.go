// Package faults is the deterministic fault-injection subsystem: a
// seed-driven Plan that any experiment can arm on a par.Machine to subject a
// run to transient stable-storage faults (per-request errors, plus outage
// windows — generated over the plan's horizon on every server, or scheduled
// on one server of a sharded machine), a flaky fabric (probabilistic drops
// and delays of application messages), and targeted crashes of a chosen rank
// at a protocol phase announcement.
//
// Every random decision is drawn from the repo's splitmix64 rng package, on
// streams derived from the plan's single seed, so a run replays
// byte-identically under the bench runner's per-cell seeds — a fault-induced
// failure is reproducible from the seed printed in the error message.
//
// The injection points are nil-guarded hooks on the layers below
// (storage.Server.FaultHook, fabric.Network.FaultHook, par.Machine.PhaseHook):
// an unarmed machine takes the exact same code paths and produces the exact
// same virtual schedule as before this package existed. Arming also installs
// the machine's default retry policy and deterministic backoff jitter, which
// the storage client (par.StorageCall) and the checkpoint
// writers consume.
//
// Only application data messages are ever dropped (mp.Droppable): checkpoint
// protocol control, acks and storage traffic stay reliable, so faults
// degrade the protocols instead of wedging them — the degradation itself
// (aborted 2PC rounds, skipped independent checkpoints, retransmissions) is
// what experiment E12 measures.
package faults

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Window is one interval of virtual time.
type Window struct {
	At  sim.Time
	Dur sim.Duration
}

func (w Window) contains(t sim.Time) bool { return t >= w.At && t < w.At.Add(w.Dur) }

// StorageFaults describes transient stable-storage failures: a per-request
// error probability on data operations (write, append, commit, read) and
// server outage windows during which every request fails, either generated
// as a Poisson process over the plan's horizon on every server, or scheduled
// on one server.
type StorageFaults struct {
	ErrProb    float64      // per data-request probability of a transient error
	OutageMTTF sim.Duration // mean time between generated outages (0 = none)
	OutageDur  sim.Duration // duration of each generated outage

	// ServerOutages schedules unavailability windows on individual storage
	// servers of a sharded machine; only the ranks placed on that shard see
	// the outage, while the others keep checkpointing. Indices beyond the
	// machine's server count are ignored.
	ServerOutages []ServerOutage
}

// ServerOutage is an unavailability window on one storage server.
type ServerOutage struct {
	Server int // index into the machine's Stores
	Window
}

// LinkFaults describes a flaky interconnect for application data traffic.
type LinkFaults struct {
	DropProb  float64      // per-message drop probability
	DelayProb float64      // per-message probability of an extra delivery delay
	DelayMax  sim.Duration // uniform delay bound when a delay hits
}

// Lossy reports whether the link plan can drop messages, in which case the
// message layer's ack/retransmit transport must be armed.
func (l LinkFaults) Lossy() bool { return l.DropProb > 0 }

// TargetedCrash schedules one surgical crash of a chosen rank at a protocol
// phase announcement (Phase, matched against the names schemes pass to
// par.Machine.NotePhase — e.g. the coordinated family's "round", "acks",
// "precommit", "meta", "commit"). It fires on the first matching
// announcement; JitterMax adds a uniform delay drawn from the plan's
// dedicated target stream, pushing the crash a deterministic distance into
// the window the phase opens. A targeted crash fires at most once: it models
// the single chosen failure an oracle cell or an E15 grid point studies. The
// crash action is Machine.CrashNode(Rank), or the plan's OnCrash override.
type TargetedCrash struct {
	Rank      int          // node to crash
	Phase     string       // phase announcement that triggers the crash
	JitterMax sim.Duration // uniform extra delay after the trigger
}

// Plan is a complete, deterministic fault schedule. The zero value injects
// nothing. Arm it on a machine before the simulation starts.
type Plan struct {
	// Seed drives every random decision of the plan. Experiments pass the
	// bench cell's seed so each cell replays independently of scheduling.
	Seed uint64

	// Horizon bounds the generated outage schedule and is the mean of
	// CrashTimes' draws. Zero defaults to a minute of virtual time.
	Horizon sim.Duration

	Storage StorageFaults
	Links   LinkFaults

	// Targets schedules surgical crashes; each fires at most once.
	Targets []TargetedCrash

	// OnCrash replaces the default crash action, Machine.CrashNode:
	// experiments wire their crash-and-recover procedure here.
	OnCrash func(node int)
}

// DefaultHorizon bounds generated fault schedules when the plan leaves
// Horizon zero.
const DefaultHorizon = 60 * sim.Second

// Armed is a plan attached to a machine: resolved schedules plus injection
// counters (also surfaced as "faults.*" metrics on the machine's observer).
type Armed struct {
	plan Plan
	m    *par.Machine

	storageRand *rng.RNG
	linkRand    *rng.RNG
	retryRand   *rng.RNG
	targetRand  *rng.RNG

	stopped bool

	// Injection counters.
	OutageHits int64 // requests failed inside an outage window
	Drops      int64 // application messages dropped
	Delays     int64 // application messages delayed
	CrashCount int64 // targeted crashes fired
}

// Arm attaches the plan to m: it derives the per-subsystem random streams,
// resolves the outage schedule, installs the storage and fabric fault hooks
// and the targeted crashes, and installs par.DefaultRetryPolicy with
// deterministic backoff jitter (a caller that wants another policy sets
// m.Retry after Arm). Call before the simulation starts. The caller is
// responsible for arming the message layer's retransmit transport
// (mp.World.EnableRetransmit) when plan.Links.Lossy() — package core does
// this automatically.
func (pl Plan) Arm(m *par.Machine) *Armed {
	root := rng.New(pl.Seed)
	a := &Armed{
		plan:        pl,
		m:           m,
		storageRand: rng.New(root.Uint64()),
		linkRand:    rng.New(root.Uint64()),
	}
	// The third seed is CrashTimes' stream. Arm draws it and throws it away,
	// so the retry-jitter and target streams keep their seeds — every armed
	// schedule a plan produced stays byte-identical.
	root.Uint64()
	a.retryRand = rng.New(root.Uint64())
	a.targetRand = rng.New(root.Uint64())
	if pl.Horizon <= 0 {
		a.plan.Horizon = DefaultHorizon
	}

	// Retry policy and deterministic backoff jitter for the hardened client.
	m.Retry = par.DefaultRetryPolicy()
	m.Jitter = a.retryRand.Float64

	a.armStorage()
	a.armLinks()
	a.armTargets()

	// A jittered crash falling beyond the workload's end must not fire into
	// a finished machine.
	m.OnAllAppsDone(func() { a.stopped = true })
	return a
}

// armStorage resolves the outage schedule and installs the server hook.
func (a *Armed) armStorage() {
	sf := a.plan.Storage
	var outages []Window // generated, on every server
	if sf.OutageMTTF > 0 && sf.OutageDur > 0 {
		t := sim.Duration(0)
		for {
			t += sim.Duration(a.storageRand.ExpFloat64() * float64(sf.OutageMTTF))
			if t > a.plan.Horizon {
				break
			}
			outages = append(outages, Window{At: sim.Time(0).Add(t), Dur: sf.OutageDur})
			t += sf.OutageDur
		}
	}
	if len(outages) == 0 && sf.ErrProb <= 0 && len(sf.ServerOutages) == 0 {
		return
	}
	// Every server gets its own hook: the machine-wide windows plus its own
	// scheduled outages. The transient-error stream is shared across servers
	// and consumed in request service order, which the single-runner engine
	// keeps deterministic.
	for si := range a.m.Stores {
		host := int(a.m.Cfg.Fabric.HostID(si))
		windows := append([]Window(nil), outages...)
		for _, so := range sf.ServerOutages {
			if so.Server == si {
				windows = append(windows, so.Window)
			}
		}
		// One span per outage window on the server host's trace, bracketed by
		// events at the window edges (events only observe the clock; the
		// schedule is fixed at arm time, so they perturb nothing).
		if a.m.Obs.Enabled() {
			for _, w := range windows {
				w := w
				a.m.Eng.At(w.At, func() {
					sp := a.m.Obs.Start(host, obs.TidProto, "faults.outage")
					a.m.Eng.After(w.Dur, sp.End)
				})
			}
		}
		a.m.Stores[si].FaultHook = func(op storage.Op, path string) error {
			now := a.m.Eng.Now()
			for _, w := range windows {
				if w.contains(now) {
					a.OutageHits++
					a.m.Obs.Add(host, "faults.outage_hits", 1)
					return fmt.Errorf("%w: outage window", storage.ErrUnavailable)
				}
			}
			if sf.ErrProb > 0 && dataOp(op) && a.storageRand.Float64() < sf.ErrProb {
				a.m.Obs.Add(host, "faults.storage_errors", 1)
				return fmt.Errorf("%w: injected fault on %s", storage.ErrUnavailable, path)
			}
			return nil
		}
	}
}

// dataOp selects the operations subject to per-request transient errors:
// the data path plus commit. Deletes and metadata queries stay clean so
// cleanup and recovery probing fail only during whole-server outages.
func dataOp(op storage.Op) bool {
	switch op {
	case storage.OpWrite, storage.OpAppend, storage.OpCommit, storage.OpRead:
		return true
	}
	return false
}

// armLinks installs the fabric hook. Only application data messages are
// candidates (mp.Droppable); the fault verdict is drawn per message in send
// order from the link stream.
func (a *Armed) armLinks() {
	lf := a.plan.Links
	if !lf.Lossy() && lf.DelayProb <= 0 {
		return
	}
	a.m.Net.FaultHook = func(env *fabric.Envelope) (sim.Duration, bool) {
		if !mp.Droppable(env) {
			return 0, false
		}
		src := int(env.Src)
		if lf.DropProb > 0 && a.linkRand.Float64() < lf.DropProb {
			a.Drops++
			a.m.Obs.Add(src, "faults.dropped_msgs", 1)
			return 0, true
		}
		if lf.DelayProb > 0 && a.linkRand.Float64() < lf.DelayProb {
			d := sim.Duration(a.linkRand.Float64() * float64(lf.DelayMax))
			if d > 0 {
				a.Delays++
				a.m.Obs.Add(src, "faults.delayed_msgs", 1)
				return d, false
			}
		}
		return 0, false
	}
}

// armTargets chains the plan's targeted crashes onto the machine's protocol
// phase hook (after any hook already installed). Each target fires at most
// once.
func (a *Armed) armTargets() {
	targets := a.plan.Targets
	if len(targets) == 0 {
		return
	}
	fired := make([]bool, len(targets))
	prev := a.m.PhaseHook
	a.m.PhaseHook = func(phase string, round int) {
		if prev != nil {
			prev(phase, round)
		}
		for i, t := range targets {
			if t.Phase != phase || fired[i] {
				continue
			}
			fired[i] = true
			if t.JitterMax > 0 {
				d := sim.Duration(a.targetRand.Float64() * float64(t.JitterMax))
				a.m.Eng.After(d, func() { a.fireTarget(t) })
				continue
			}
			a.fireTarget(t)
		}
	}
}

// fireTarget crashes the target's rank (or runs the plan's OnCrash
// override). With no jitter a phase target fires synchronously inside the
// phase announcement, which is exactly the window the oracle wants to hit.
func (a *Armed) fireTarget(t TargetedCrash) {
	if a.stopped || a.m.AppsLive() == 0 {
		return
	}
	a.CrashCount++
	a.m.Obs.Add(t.Rank, "faults.crashes", 1)
	a.m.Obs.InstantArg(t.Rank, obs.TidProto, "faults.targeted_crash", "node", int64(t.Rank))
	if a.plan.OnCrash != nil {
		a.plan.OnCrash(t.Rank)
		return
	}
	a.m.CrashNode(t.Rank)
}

// CrashTimes draws n exponentially distributed crash instants, one per node,
// with the plan's horizon as their mean, from the plan's crash stream — the
// third seed drawn from the plan's root, the one Arm throws away. The
// correctness oracle uses it to pick crash points "drawn from the seeded
// faults plan" for machines it crashes itself (it needs the instant before
// the run starts, to bracket it against the baseline's execution time).
// Times beyond the horizon are returned unclamped so the caller decides how
// to fold them into its experiment.
func (pl Plan) CrashTimes(n int) []sim.Time {
	root := rng.New(pl.Seed)
	root.Uint64() // the storage stream's seed, discarded
	root.Uint64() // the link stream's seed, discarded
	crashRand := rng.New(root.Uint64())
	mttf := pl.Horizon
	if mttf <= 0 {
		mttf = DefaultHorizon
	}
	out := make([]sim.Time, n)
	for i := range out {
		out[i] = sim.Time(0).Add(sim.Duration(crashRand.ExpFloat64() * float64(mttf)))
	}
	return out
}

// Report is the injection summary of one armed run, merged with the
// machine-level retry counter by package core.
type Report struct {
	OutageHits     int64 // requests failed inside outage windows
	Drops          int64 // application messages dropped
	Delays         int64 // application messages delayed
	Crashes        int64 // targeted crashes fired
	StorageRetries int64 // storage operations re-issued by the retry client
	Retransmits    int64 // data messages re-sent by the mp transport
}

// Report snapshots the armed plan's counters (retries come from the
// machine, retransmits from the message layer).
func (a *Armed) Report() Report {
	return Report{
		OutageHits:     a.OutageHits,
		Drops:          a.Drops,
		Delays:         a.Delays,
		Crashes:        a.CrashCount,
		StorageRetries: a.m.StorageRetries,
	}
}

// Lossy reports whether the armed plan can drop messages.
func (a *Armed) Lossy() bool { return a.plan.Links.Lossy() }
