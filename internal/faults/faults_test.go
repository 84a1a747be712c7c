package faults_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/storage"
)

// testWorkload is a small SOR run: big enough for several checkpoints, small
// enough to keep the suite fast. coordWorkload is a longer variant for the
// coordinated tests, which need room for a round to abort through an outage
// and still commit on retry before the application finishes.
func testWorkload() apps.Workload  { return apps.SORWorkload(apps.DefaultSOR(64, 24)) }
func coordWorkload() apps.Workload { return apps.SORWorkload(apps.DefaultSOR(64, 144)) }

// baseExec measures each workload's failure-free execution time once; the
// intervals below are fractions of it so the tests survive changes to the
// simulated machine's speed.
var baseExec = sync.OnceValues(func() (sim.Duration, error) {
	res, err := core.Run(testWorkload(), core.Config{Machine: par.DefaultConfig()})
	return res.Exec, err
})
var coordBaseExec = sync.OnceValues(func() (sim.Duration, error) {
	res, err := core.Run(coordWorkload(), core.Config{Machine: par.DefaultConfig()})
	return res.Exec, err
})

// tightRetry exhausts quickly so outage windows reliably force aborts and
// skips instead of being ridden out by the default backoff budget. Arm
// installs the default policy; the tests replace it on the armed machine.
func tightRetry() par.RetryPolicy {
	return par.RetryPolicy{Attempts: 2, Timeout: sim.Second, Base: 5 * sim.Millisecond, Cap: 20 * sim.Millisecond}
}

// firstWriteAt returns the completion time of the earliest committed
// checkpoint write. Checkpoint timers fire long before their data reaches
// the storage server (the state crosses the host link first), so outage
// windows are anchored on this measured time from a fault-free dry run: the
// faulted run replays the dry run byte-for-byte until the window opens,
// which guarantees the window straddles real write traffic.
func firstWriteAt(recs []ckpt.Record) sim.Time {
	first := recs[0].At
	for _, r := range recs {
		if r.At < first {
			first = r.At
		}
	}
	return first
}

// outageWindow opens just before the write that completed at first and stays
// down for dur. The lead covers the final segment's disk service so the
// write's own pipeline fails inside the window.
func outageWindow(first sim.Time, dur sim.Duration) faults.Window {
	at := first.Add(-60 * sim.Millisecond)
	if at < sim.Time(0) {
		at = sim.Time(0)
	}
	return faults.Window{At: at, Dur: dur}
}

// outagePlan takes the default machine's one storage server down for w.
func outagePlan(seed uint64, w faults.Window) *faults.Plan {
	return &faults.Plan{
		Seed:    seed,
		Storage: faults.StorageFaults{ServerOutages: []faults.ServerOutage{{Server: 0, Window: w}}},
	}
}

// coordRun is the shared coordinated outage run: a dry run finds where round
// 1's writes land, then the faulted run drops the storage server over them.
// Both coordinated tests read it; the machine's stable storage is kept for
// post-run inspection.
type coordRun struct {
	interval sim.Duration
	window   faults.Window
	stats    ckpt.Stats
	records  []ckpt.Record
	store    *storage.Server
	o        *obs.Observer

	// Snapshot taken just before the outage lifts: by then the round in
	// flight has exhausted its retries and aborted.
	probeStats ckpt.Stats
	probePaths []string
}

var coordOutage = sync.OnceValues(runCoordOutage)

func runCoordOutage() (*coordRun, error) {
	wl := coordWorkload()
	exec, err := coordBaseExec()
	if err != nil {
		return nil, err
	}
	interval := exec / 5

	// Dry run: same scheme and interval, no faults.
	dry, err := core.Run(wl, core.Config{
		Machine: par.DefaultConfig(), Scheme: ckpt.CoordNB, Interval: interval,
	})
	if err != nil {
		return nil, err
	}
	if dry.Ckpt.Rounds == 0 {
		return nil, fmt.Errorf("dry run committed no round (exec %v, interval %v)", dry.Exec, interval)
	}

	r := &coordRun{interval: interval, window: outageWindow(firstWriteAt(dry.Records), interval), o: obs.New()}
	plan := outagePlan(1, r.window)

	// Assembled by hand (mirroring core.Run) so the test can probe stable
	// storage mid-run and keep the server afterwards.
	m := par.NewMachine(par.DefaultConfig())
	defer m.Shutdown()
	r.store = m.Store
	m.SetObserver(r.o)
	plan.Arm(m)
	m.Retry = tightRetry()
	sch := ckpt.New(ckpt.CoordNB, ckpt.Options{Interval: interval})
	sch.Attach(m)
	w := mp.NewWorld(m)
	progs := make([]mp.Program, m.NumNodes())
	for rank := range progs {
		progs[rank] = wl.Make(rank, m.NumNodes())
		w.Launch(rank, progs[rank])
	}
	m.Eng.At(r.window.At.Add(r.window.Dur-10*sim.Millisecond), func() {
		r.probeStats = sch.Stats()
		r.probePaths = m.Store.DurablePaths()
	})
	if err := m.Run(); err != nil {
		return nil, fmt.Errorf("faulted run: %w", err)
	}
	if err := wl.Check(progs); err != nil {
		return nil, fmt.Errorf("oracle after faulted run: %w", err)
	}
	r.stats = sch.Stats()
	r.records = sch.Records()
	return r, nil
}

// TestCoordinatedOutageAbortsThenCommits covers the 2PC hardening end to
// end: a storage outage over the first round's writes forces aborts, the
// abort leaves no partial durable state (in particular no commit record),
// and once the outage lifts the backoff retry commits rounds normally while
// the application still computes the right answer.
func TestCoordinatedOutageAbortsThenCommits(t *testing.T) {
	r, err := coordOutage()
	if err != nil {
		t.Fatal(err)
	}

	// Just before the outage lifts: the round in flight aborted, nothing
	// committed, and no commit record reached the durable area.
	if r.probeStats.RoundsAborted == 0 {
		t.Fatalf("no round aborted during the outage; stats %+v", r.probeStats)
	}
	if r.probeStats.Rounds != 0 {
		t.Fatalf("a round committed during the outage: %+v", r.probeStats)
	}
	for _, p := range r.probePaths {
		if p == "coord/meta" {
			t.Fatalf("commit record durable mid-outage with zero committed rounds; paths %v", r.probePaths)
		}
	}

	// After the outage: rounds committed, records consistent, obs counter
	// agrees with the scheme's tally.
	if r.stats.Rounds == 0 {
		t.Fatalf("no round committed after the outage lifted: %+v", r.stats)
	}
	n := par.DefaultConfig().Fabric.Nodes()
	if len(r.records) != r.stats.Rounds*n {
		t.Fatalf("records = %d, want rounds*nodes = %d", len(r.records), r.stats.Rounds*n)
	}
	if got := r.o.CounterTotal("ckpt.rounds_aborted"); got != int64(r.stats.RoundsAborted) {
		t.Fatalf("obs ckpt.rounds_aborted = %d, stats say %d", got, r.stats.RoundsAborted)
	}

	// No record was committed inside the outage window.
	for _, rec := range r.records {
		if r.window.At <= rec.At && rec.At < r.window.At.Add(r.window.Dur) {
			t.Fatalf("checkpoint write completed durably inside the outage: %+v", rec)
		}
	}

	// The durable area holds only coordinated-scheme files: the commit
	// record and the two round slots. Aborted attempts left no strays.
	for _, p := range r.store.DurablePaths() {
		if p == "coord/meta" || strings.HasPrefix(p, "coord/slot0/") || strings.HasPrefix(p, "coord/slot1/") {
			continue
		}
		t.Fatalf("unexpected durable path %q after aborts", p)
	}
}

// TestCommittedRoundSurvivesOutageAndCrash checks the durability half of the
// contract: after a run whose rounds rode through an outage, a stable-storage
// crash (which discards the tmp area) still leaves the last committed round
// fully restorable — the commit record and every rank's state file.
func TestCommittedRoundSurvivesOutageAndCrash(t *testing.T) {
	r, err := coordOutage()
	if err != nil {
		t.Fatal(err)
	}

	r.store.Crash() // drops everything not committed durable

	last := 0
	for _, rec := range r.records {
		if rec.Index > last {
			last = rec.Index
		}
	}
	if last == 0 {
		t.Fatalf("no committed round to inspect: %+v", r.stats)
	}
	durable := make(map[string]bool)
	for _, p := range r.store.DurablePaths() {
		durable[p] = true
	}
	if !durable["coord/meta"] {
		t.Fatalf("commit record lost on crash; paths %v", r.store.DurablePaths())
	}
	n := par.DefaultConfig().Fabric.Nodes()
	for rank := 0; rank < n; rank++ {
		p := fmt.Sprintf("coord/slot%d/s%03d", last%2, rank)
		if !durable[p] {
			t.Fatalf("committed round %d lost rank %d state (%s) on crash", last, rank, p)
		}
	}
}

// TestUncommittedTmpWriteLostOnCrash pins down the storage semantics the
// checkpoint protocols rely on: a tmp write vanishes on a crash, a committed
// write survives.
func TestUncommittedTmpWriteLostOnCrash(t *testing.T) {
	m := par.NewMachine(par.DefaultConfig())
	defer m.Shutdown()
	var uncommitted, committed storage.Reply
	m.StartApp(0, "writer", func(p *sim.Proc) {
		n := m.Nodes[0]
		n.StorageCall(p, storage.Request{Op: storage.OpWrite, Path: "tmp-only", Data: make([]byte, 100)})
		n.StorageCall(p, storage.Request{Op: storage.OpWrite, Path: "kept", Data: make([]byte, 100)})
		n.StorageCall(p, storage.Request{Op: storage.OpCommit, Path: "kept"})
		m.Store.Crash()
		uncommitted = n.StorageCall(p, storage.Request{Op: storage.OpCommit, Path: "tmp-only"})
		committed = n.StorageCall(p, storage.Request{Op: storage.OpRead, Path: "kept"})
	})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(uncommitted.Err, storage.ErrNotFound) {
		t.Fatalf("uncommitted tmp write survived the crash: err = %v", uncommitted.Err)
	}
	if committed.Err != nil || len(committed.Data) != 100 {
		t.Fatalf("committed write lost on crash: err = %v, len = %d", committed.Err, len(committed.Data))
	}
}

// TestIndependentAndCICSkipDuringOutage: uncoordinated schemes degrade
// gracefully when storage is down — the failed checkpoint is skipped and
// counted, later checkpoints succeed, and the application is untouched.
func TestIndependentAndCICSkipDuringOutage(t *testing.T) {
	exec, err := baseExec()
	if err != nil {
		t.Fatal(err)
	}
	interval := exec / 5
	for _, v := range []ckpt.Variant{ckpt.Indep, ckpt.CIC} {
		t.Run(v.String(), func(t *testing.T) {
			cfg := core.Config{
				Machine:  par.DefaultConfig(),
				Scheme:   v,
				Interval: interval,
			}
			dry, err := core.Run(testWorkload(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(dry.Records) == 0 {
				t.Fatalf("dry run took no checkpoint")
			}
			cfg.Faults = outagePlan(2, outageWindow(firstWriteAt(dry.Records), 600*sim.Millisecond))
			run := core.Start(testWorkload(), cfg)
			run.M.Retry = tightRetry()
			res, err := run.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if res.Faults.OutageHits == 0 {
				t.Fatalf("outage window never hit a request: %+v", res.Faults)
			}
			if res.Ckpt.SkippedCkpts == 0 {
				t.Fatalf("no checkpoint skipped during the outage: %+v", res.Ckpt)
			}
			if res.Ckpt.Checkpoints == 0 {
				t.Fatalf("no checkpoint succeeded after the outage: %+v", res.Ckpt)
			}
			// CIC's termination checkpoints are recorded but kept out of the
			// completed-checkpoint normalization.
			if want := res.Ckpt.Checkpoints + res.Ckpt.FinalCkpts; len(res.Records) != want {
				t.Fatalf("records = %d, want one per durable checkpoint = %d", len(res.Records), want)
			}
		})
	}
}

// TestLossyLinksDeliverEverything: with drops and delays armed, the
// ack/retransmit transport still delivers every application message in order
// (the workload oracle passes) and the counters show faults actually fired.
func TestLossyLinksDeliverEverything(t *testing.T) {
	plan := &faults.Plan{
		Seed: 3,
		Links: faults.LinkFaults{
			DropProb:  0.05,
			DelayProb: 0.05,
			DelayMax:  sim.Millisecond,
		},
	}
	res, err := core.Run(testWorkload(), core.Config{Machine: par.DefaultConfig(), Faults: plan})
	if err != nil {
		t.Fatalf("lossy run failed: %v", err)
	}
	if res.Faults.Drops == 0 {
		t.Fatalf("no message dropped at 5%% drop probability: %+v", res.Faults)
	}
	if res.Faults.Retransmits < res.Faults.Drops {
		t.Fatalf("retransmits %d < drops %d: lost messages were not resent",
			res.Faults.Retransmits, res.Faults.Drops)
	}
	if res.Faults.Delays == 0 {
		t.Fatalf("no message delayed at 5%% delay probability: %+v", res.Faults)
	}
}

// TestPlanDeterminismSameSeed: the whole point of the package — identical
// plans yield identical runs, counters and committed records included.
func TestPlanDeterminismSameSeed(t *testing.T) {
	exec, err := baseExec()
	if err != nil {
		t.Fatal(err)
	}
	run := func() core.Result {
		t.Helper()
		plan := &faults.Plan{
			Seed: 4,
			Storage: faults.StorageFaults{
				ErrProb:    0.02,
				OutageMTTF: 10 * exec,
				OutageDur:  100 * sim.Millisecond,
			},
			Links: faults.LinkFaults{
				DropProb:  0.01,
				DelayProb: 0.02,
				DelayMax:  sim.Millisecond,
			},
		}
		res, err := core.Run(testWorkload(), core.Config{
			Machine:  par.DefaultConfig(),
			Scheme:   ckpt.Indep,
			Interval: exec / 4,
			Faults:   plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Exec != b.Exec {
		t.Fatalf("execution diverged under the same seed: %v vs %v", a.Exec, b.Exec)
	}
	if a.Faults != b.Faults {
		t.Fatalf("fault reports diverged under the same seed:\n%+v\n%+v", a.Faults, b.Faults)
	}
	if a.Ckpt.Checkpoints != b.Ckpt.Checkpoints || a.Ckpt.SkippedCkpts != b.Ckpt.SkippedCkpts {
		t.Fatalf("checkpoint stats diverged under the same seed:\n%+v\n%+v", a.Ckpt, b.Ckpt)
	}
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Fatalf("committed records diverged under the same seed")
	}
}
