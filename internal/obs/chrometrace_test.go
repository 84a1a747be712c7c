package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildFixedTrace records a small deterministic scenario against a manual
// virtual clock: one coordinated round on two nodes plus a storage write on
// the host, with an out-of-order End to exercise export sorting.
func buildFixedTrace() *Observer {
	var now sim.Time
	o := New()
	o.clock = func() sim.Time { return now }
	o.SetScheme("Coord_NBMS")
	o.PidName(0, "node0")
	o.PidName(1, "node1")
	o.PidName(8, "host")
	o.TidName(8, TidDaemon, "storage")

	round := o.Start(0, TidCoord, "ckpt.round").WithArg("round", 1)
	sync0 := o.Start(0, TidProto, "ckpt.sync")
	sync1 := o.Start(1, TidProto, "ckpt.sync")
	now = sim.Time(2 * sim.Millisecond)
	sync0.End()
	copy0 := o.Start(0, TidApp, "ckpt.memcopy")
	now = sim.Time(3 * sim.Millisecond)
	sync1.End()
	copy0.End()
	w0 := o.Start(0, TidDaemon, "ckpt.disk_write")
	sw := o.Start(8, TidDaemon, "storage.write")
	now = sim.Time(9 * sim.Millisecond)
	sw.End()
	w0.End()
	tok := o.Start(1, TidDaemon, "ckpt.token_wait")
	now = sim.Time(11 * sim.Millisecond)
	tok.End()
	o.InstantArg(0, TidCoord, "ckpt.commit", "", 0)
	round.End()
	return o
}

// TestChromeTraceGolden pins the exporter's exact output: stable event
// ordering, microsecond timestamps, metadata naming.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixedTrace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrometrace_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace output differs from golden file\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestChromeTraceWellFormed validates the structural guarantees the
// acceptance criteria name: parseable JSON, non-empty, one pid per named
// node, complete events carrying durations.
func TestChromeTraceWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixedTrace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace is empty")
	}
	if doc.OtherData["scheme"] != "Coord_NBMS" {
		t.Errorf("otherData.scheme = %v", doc.OtherData["scheme"])
	}
	pids := map[float64]bool{}
	var spans, instants, meta int
	for _, ev := range doc.TraceEvents {
		pids[ev["pid"].(float64)] = true
		switch ev["ph"] {
		case "X":
			spans++
			if _, ok := ev["dur"]; !ok {
				t.Errorf("X event %q has no dur", ev["name"])
			}
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	for _, pid := range []float64{0, 1, 8} {
		if !pids[pid] {
			t.Errorf("pid %v missing from trace", pid)
		}
	}
	if spans != 7 || instants != 1 || meta == 0 {
		t.Errorf("got %d spans, %d instants, %d metadata events", spans, instants, meta)
	}
}

// TestNilObserverTrace checks a nil sink still writes a valid empty trace.
func TestNilObserverTrace(t *testing.T) {
	var o *Observer
	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil trace is not valid JSON: %v", err)
	}
	if evs, ok := doc["traceEvents"].([]any); !ok || len(evs) != 0 {
		t.Errorf("nil trace events = %v, want empty array", doc["traceEvents"])
	}
}
