package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
)

// The observability layer's core guarantee: installing an Observer must not
// change anything about a run. Instrumentation only reads the virtual clock —
// it never sleeps, parks or schedules events — so the virtual-time results of
// an instrumented run are identical to an uninstrumented one.
func TestObserverDoesNotPerturbRun(t *testing.T) {
	for _, v := range []ckpt.Variant{ckpt.CoordNBMS, ckpt.Indep, ckpt.CIC, ckpt.CICM} {
		t.Run(v.String(), func(t *testing.T) {
			cfg := Config{Machine: par.DefaultConfig(), Scheme: v, Interval: 500 * sim.Millisecond, MaxCheckpoints: 2}
			wl := apps.SORWorkload(apps.DefaultSOR(64, 30))

			plain, err := Run(wl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Obs = obs.New()
			instr, err := Run(wl, cfg)
			if err != nil {
				t.Fatal(err)
			}

			if plain.Exec != instr.Exec {
				t.Errorf("Exec changed: %v vs %v", plain.Exec, instr.Exec)
			}
			if !reflect.DeepEqual(plain.Ckpt, instr.Ckpt) {
				t.Errorf("Ckpt stats changed:\nplain: %+v\ninstr: %+v", plain.Ckpt, instr.Ckpt)
			}
			if !reflect.DeepEqual(plain.Records, instr.Records) {
				t.Errorf("checkpoint records changed")
			}
			if plain.MaxHostLinkBusy != instr.MaxHostLinkBusy || plain.MaxDiskBusy != instr.MaxDiskBusy {
				t.Errorf("resource busy times changed: host %v/%v disk %v/%v",
					plain.MaxHostLinkBusy, instr.MaxHostLinkBusy, plain.MaxDiskBusy, instr.MaxDiskBusy)
			}
			if plain.NetMsgs != instr.NetMsgs || plain.NetBytes != instr.NetBytes {
				t.Errorf("traffic changed: %d/%d msgs, %d/%d bytes",
					plain.NetMsgs, instr.NetMsgs, plain.NetBytes, instr.NetBytes)
			}
			if cfg.Obs.CounterTotal("ckpt.state_bytes") != plain.Ckpt.StateBytes {
				t.Errorf("obs state bytes %d != scheme stats %d",
					cfg.Obs.CounterTotal("ckpt.state_bytes"), plain.Ckpt.StateBytes)
			}
		})
	}
}

// A run's Chrome trace must be valid JSON covering every node, and two
// identical runs must export byte-identical traces (the simulation and the
// recorder are both deterministic).
func TestChromeTraceFromRunIsValidAndReproducible(t *testing.T) {
	exportTrace := func() []byte {
		cfg := Config{Machine: par.DefaultConfig(), Scheme: ckpt.CoordNBMS, Interval: 500 * sim.Millisecond, MaxCheckpoints: 2}
		cfg.Obs = obs.New()
		if _, err := Run(apps.SORWorkload(apps.DefaultSOR(64, 30)), cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cfg.Obs.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	first := exportTrace()
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(first, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.OtherData["scheme"] != "Coord_NBMS" {
		t.Errorf("scheme label = %q", doc.OtherData["scheme"])
	}
	spanPids := map[int]bool{}
	spans := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans++
			spanPids[e.Pid] = true
		}
	}
	if spans == 0 {
		t.Fatal("trace has no duration events")
	}
	nodes := Default().Machine.Fabric.Nodes()
	for pid := 0; pid < nodes; pid++ {
		if !spanPids[pid] {
			t.Errorf("no span events for node %d", pid)
		}
	}

	if second := exportTrace(); !bytes.Equal(first, second) {
		t.Error("two identical runs exported different traces")
	}
}
