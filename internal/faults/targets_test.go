package faults_test

import (
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/par"
	"repro/internal/sim"
)

// TestTargetedCrashSameSeedDeterminism: a phase-targeted crash (with its
// jitter drawn from the dedicated target stream) replays bit-identically
// under the same seed. The crash action is overridden to a counter so the
// run completes and the whole trajectory is comparable.
func TestTargetedCrashSameSeedDeterminism(t *testing.T) {
	exec, err := coordBaseExec()
	if err != nil {
		t.Fatal(err)
	}
	run := func() (core.Result, int) {
		t.Helper()
		fired := 0
		plan := &faults.Plan{
			Seed:    11,
			Horizon: 2 * exec,
			Targets: []faults.TargetedCrash{
				{Rank: 0, Phase: "meta", JitterMax: 5 * sim.Millisecond},
			},
			OnCrash: func(node int) { fired++ },
		}
		res, err := core.Run(coordWorkload(), core.Config{
			Machine:  par.DefaultConfig(),
			Scheme:   ckpt.CoordNB,
			Interval: exec / 4,
			Faults:   plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, fired
	}
	a, firedA := run()
	b, firedB := run()
	if firedA != 1 || firedB != 1 {
		t.Fatalf("target fired %d/%d times, want exactly once each", firedA, firedB)
	}
	if a.Exec != b.Exec || a.Faults != b.Faults {
		t.Fatalf("targeted runs diverged under the same seed:\n%+v\n%+v", a, b)
	}
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Fatal("committed records diverged under the same seed")
	}
}

// TestTargetStreamLeavesRetryJitterUnchanged: the target stream is the fifth
// drawn from the plan's root, after the retry-jitter stream, so adding a
// target to a plan must not move a single backoff draw. A target that fires
// (its crash overridden to a no-op, its jitter drawn from its own stream)
// leaves the run bit-identical to the run without it, bar the crash count.
func TestTargetStreamLeavesRetryJitterUnchanged(t *testing.T) {
	exec, err := coordBaseExec()
	if err != nil {
		t.Fatal(err)
	}
	run := func(targets []faults.TargetedCrash) core.Result {
		t.Helper()
		plan := &faults.Plan{
			Seed:    7,
			Storage: faults.StorageFaults{ErrProb: 0.05},
			Targets: targets,
			OnCrash: func(node int) {},
		}
		res, err := core.Run(coordWorkload(), core.Config{
			Machine:  par.DefaultConfig(),
			Scheme:   ckpt.CoordNB,
			Interval: exec / 4,
			Faults:   plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	targeted := run([]faults.TargetedCrash{{Rank: 0, Phase: "commit", JitterMax: 5 * sim.Millisecond}})
	if plain.Faults.StorageRetries == 0 {
		t.Fatalf("no storage request was retried, so no backoff was drawn: %+v", plain.Faults)
	}
	if targeted.Faults.Crashes != 1 {
		t.Fatalf("target fired %d times, want once", targeted.Faults.Crashes)
	}
	targeted.Faults.Crashes = 0
	if plain.Exec != targeted.Exec || plain.Faults != targeted.Faults {
		t.Fatalf("a target perturbed the retry schedule:\n%+v\n%+v", plain, targeted)
	}
	if !reflect.DeepEqual(plain.Records, targeted.Records) {
		t.Fatal("a target perturbed the committed records")
	}
}
