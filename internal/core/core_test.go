package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/mp"
	"repro/internal/sim"
)

func TestRunBaseline(t *testing.T) {
	res, err := Run(apps.SORWorkload(apps.DefaultSOR(64, 10)), Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "none" || res.Exec <= 0 || res.NetMsgs == 0 {
		t.Fatalf("result: %+v", res)
	}
	if res.Ckpt.Checkpoints != 0 {
		t.Fatal("checkpoints counted without a scheme")
	}
}

func TestRunWithScheme(t *testing.T) {
	cfg := Default().WithScheme(ckpt.CoordNBMS, 500*sim.Millisecond, 2)
	res, err := Run(apps.SORWorkload(apps.DefaultSOR(64, 30)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "Coord_NBMS" {
		t.Fatalf("scheme = %q", res.Scheme)
	}
	if res.Ckpt.Rounds == 0 || len(res.Records) == 0 {
		t.Fatalf("no checkpoints: %+v", res.Ckpt)
	}
	if res.StoragePeak == 0 || res.DiskBusy == 0 {
		t.Fatal("storage metrics missing")
	}
}

func TestRunSurfacesOracleFailure(t *testing.T) {
	wl := apps.SORWorkload(apps.DefaultSOR(64, 5))
	forced := errors.New("forced mismatch")
	wl.Check = func(progs []mp.Program) error { return forced }
	_, err := Run(wl, Default())
	if err == nil || !strings.Contains(err.Error(), "verification failed") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckpointingOnPredicate(t *testing.T) {
	if Default().CheckpointingOn() {
		t.Fatal("default config should not checkpoint")
	}
	if !Default().WithScheme(ckpt.Indep, sim.Second, 0).CheckpointingOn() {
		t.Fatal("WithScheme should enable checkpointing")
	}
}
