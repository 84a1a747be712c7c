package core

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/sim"
)

// TestFinishVerifiesWhatTheNodesEndWith: between Start and Finish a caller
// may crash the machine. Recovered from the launch's own options and program
// factory, the run is verified on the recovered programs; never recovered,
// Finish reports the lost rank instead of checking programs that are gone.
func TestFinishVerifiesWhatTheNodesEndWith(t *testing.T) {
	wl := apps.SORWorkload(apps.DefaultSOR(64, 30))
	base, err := Run(wl, Default())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default().WithScheme(ckpt.CoordNB, base.Exec/4, 0)
	for _, restart := range []bool{true, false} {
		run := Start(wl, cfg)
		var rep *ckpt.RecoveryReport
		run.M.Eng.At(sim.Time(base.Exec*3/4), func() {
			run.M.CrashAll()
			if restart {
				_, rep = ckpt.Recover(run.M, cfg.Scheme, run.Options, run.Program)
			}
		})
		res, err := run.Finish()
		switch {
		case restart && (err != nil || rep == nil || res.Exec <= base.Exec):
			t.Errorf("recovered run: exec %v (crash-free %v), report %v, err %v", res.Exec, base.Exec, rep, err)
		case !restart && (err == nil || !strings.Contains(err.Error(), "never recovered")):
			t.Errorf("unrecovered run: err = %v, want the lost rank reported", err)
		}
	}
}
