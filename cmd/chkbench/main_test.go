package main

import (
	"errors"
	"flag"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestHelpListsProfilingFlags guards against flag-help drift: -h must list
// the host-profiling flags shared by every command (internal/perf) and every
// experiment of the catalogue, and the help request itself must surface as
// flag.ErrHelp (main exits 2).
func TestHelpListsProfilingFlags(t *testing.T) {
	var out, errw strings.Builder
	err := run([]string{"-h"}, &out, &errw)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("err = %v, want flag.ErrHelp", err)
	}
	for _, want := range append([]string{"-cpuprofile", "-memprofile", "-pprof"}, bench.ExperimentNames()...) {
		if !strings.Contains(errw.String(), want) {
			t.Fatalf("-h output missing %q:\n%s", want, errw.String())
		}
	}
}

// TestHelpListsRecoveryDemos: the E7 recovery demo is a catalogue entry, so
// -h lists it under -exp, and it sits at the end of the catalogue, which
// keeps every earlier experiment at its IDENTITY.txt line.
func TestHelpListsRecoveryDemos(t *testing.T) {
	var out, errw strings.Builder
	if err := run([]string{"-h"}, &out, &errw); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("err = %v, want flag.ErrHelp", err)
	}
	if want := "coord     E7"; !strings.Contains(errw.String(), want) {
		t.Fatalf("-h output missing %q:\n%s", want, errw.String())
	}
	names := bench.ExperimentNames()
	if tail := names[len(names)-1]; tail != "coord" {
		t.Fatalf("catalogue ends with %q, want coord", tail)
	}
}

// TestRunUnknownExperimentIsUsage: an unknown -exp is misuse (errUsage,
// exit 2) and the error still carries the catalogue's
// bench.ErrUnknownExperiment, which tells it apart from other misuse.
func TestRunUnknownExperimentIsUsage(t *testing.T) {
	var out, errw strings.Builder
	err := run([]string{"-exp", "bogus"}, &out, &errw)
	if !errors.Is(err, errUsage) || !errors.Is(err, bench.ErrUnknownExperiment) {
		t.Fatalf("err = %v, want errUsage wrapping bench.ErrUnknownExperiment", err)
	}
}

// TestRunUnknownExperimentListsCatalogue: an unknown -exp is misuse
// (errUsage, exit 2), and the error names the bad value and every experiment
// the catalogue holds, so the message is its own usage line. "logging" named
// the single-node recovery demo, which is gone.
func TestRunUnknownExperimentListsCatalogue(t *testing.T) {
	for _, name := range []string{"bogus", "logging"} {
		var out, errw strings.Builder
		err := run([]string{"-exp", name}, &out, &errw)
		if !errors.Is(err, errUsage) {
			t.Fatalf("run(-exp %s) = %v, want errUsage", name, err)
		}
		for _, want := range append([]string{`"` + name + `"`}, bench.ExperimentNames()...) {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not list %s", err, want)
			}
		}
		if out.Len() != 0 {
			t.Fatalf("stdout not empty on a usage error:\n%s", out.String())
		}
	}
}

// TestRunUnknownTableFails pins the audit fix: an unrecognized -table used to
// fall through every table block and exit 0 having benchmarked nothing. It
// is misuse, so it surfaces as errUsage (exit 2).
func TestRunUnknownTableFails(t *testing.T) {
	var out, errw strings.Builder
	err := run([]string{"-table", "9"}, &out, &errw)
	if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), `unknown -table "9"`) {
		t.Fatalf("err = %v, want unknown-table usage error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("stdout not empty on failure:\n%s", out.String())
	}
}

// TestRunUnknownNamesFail covers the lookup error paths main must surface as
// misuse (errUsage, exit 2): workload, scheme, and experiment resolution.
func TestRunUnknownNamesFail(t *testing.T) {
	for _, args := range [][]string{
		{"-metrics", "-app", "NOPE-1"},
		{"-metrics", "-scheme", "NOPE"},
		{"-exp", "bogus"},
	} {
		var out, errw strings.Builder
		if err := run(args, &out, &errw); !errors.Is(err, errUsage) {
			t.Errorf("run(%v) = %v, want errUsage", args, err)
		}
	}
}

// TestRunBadFlagFails proves flag misuse surfaces as an error (main exits 2).
// -app, -scheme and -ckpts pick the run -metrics and -trace inspect; set
// without either, they were once ignored and the tables ran instead, so they
// are misuse now (errUsage) and the error names the flag.
func TestRunBadFlagFails(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-no-such-flag"}, "no-such-flag"},
		{[]string{"-quick", "-scheme", "NBMS"}, "-scheme"},
		{[]string{"-quick", "-app", "SOR-128"}, "-app"},
		{[]string{"-quick", "-ckpts", "7"}, "-ckpts"},
		{[]string{"-quick", "-table", "1", "-scheme", "NBMS", "-ckpts", "7"}, "-scheme"},
		{[]string{"-exp", "coord", "-app", "SOR-128"}, "-app"},
		// Indep_Log (single-node recovery) is gone: its name is refused with
		// the list of schemes.
		{[]string{"-metrics", "-app", "SOR-128", "-scheme", "Indep_Log", "-ckpts", "1"}, "Coord_NB_FT_INC"},
	} {
		wantUsage(t, tc.args, tc.want)
	}
}

// wantUsage runs args and requires a usage error (errUsage, exit 2) that
// names want, with nothing written to stdout.
func wantUsage(t *testing.T, args []string, want string) {
	t.Helper()
	var out, errw strings.Builder
	err := run(args, &out, &errw)
	if !errors.Is(err, errUsage) {
		t.Errorf("run(%v) = %v, want errUsage", args, err)
		return
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("run(%v) error %q does not name %q", args, err, want)
	}
	if out.Len() != 0 {
		t.Errorf("run(%v) wrote to stdout on a usage error:\n%s", args, out.String())
	}
}

// TestRunMetricsReportsOneRun: -metrics of a single scheme opens with the
// report of that run against its normal run, then the breakdown and the
// metric summary; a CIC scheme adds its forced/basic/final split, and one
// round latency line follows per global round.
func TestRunMetricsReportsOneRun(t *testing.T) {
	report := []string{
		"SOR-128      normal execution:", " msgs, ", " MB on the wire)",
		"SOR-128      under Coord_NBMS", "% overhead)",
		"  interval            ",
		"  checkpoints         ", " global rounds)",
		"  state written       ",
		"  channel state       ",
		"  protocol messages   ",
		"  app blocked         ", "s memory copies)",
		"  stable-storage peak ", " checkpoint files",
		"  round 1 latency     ", "  round 2 latency     ",
		"Overhead breakdown: SOR-128", "Counters and gauges (scheme Coord_NBMS",
	}
	cic := []string{"SOR-128      under CIC", "  forced/basic/final  ", "Counters and gauges (scheme CIC"}
	for _, tc := range []struct {
		scheme       string
		want, absent []string
	}{
		{"NBMS", report, []string{"forced/basic/final", "round 3 latency"}},
		{"CIC", cic, []string{"round 1 latency"}},
	} {
		var out, errw strings.Builder
		if err := run([]string{"-metrics", "-app", "SOR-128", "-scheme", tc.scheme, "-ckpts", "2"}, &out, &errw); err != nil {
			t.Fatalf("-metrics -scheme %s: %v", tc.scheme, err)
		}
		rest := out.String()
		for _, want := range tc.want {
			i := strings.Index(rest, want)
			if i < 0 {
				t.Fatalf("-scheme %s: %q missing or out of order in:\n%s", tc.scheme, want, out.String())
			}
			rest = rest[i+len(want):]
		}
		for _, absent := range tc.absent {
			if strings.Contains(out.String(), absent) {
				t.Errorf("-scheme %s printed %q:\n%s", tc.scheme, absent, out.String())
			}
		}
	}
}

// TestRunRecoveryDemoFlagsFail: the recovery and failover demos run at fixed
// parameters, so the knobs a demo once took (-interval, -crash, -seed,
// -killphase) are not flags and must be rejected before anything runs.
func TestRunRecoveryDemoFlagsFail(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "coord", "-interval", "1s"},
		{"-exp", "coord", "-crash", "5s"},
		{"-exp", "coord", "-seed", "7"},
		{"-exp", "failover", "-killphase", "precommit"},
	} {
		var out, errw strings.Builder
		err := run(args, &out, &errw)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run(%v) = %v, want an undefined-flag error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) wrote to stdout on a bad flag:\n%s", args, out.String())
		}
	}
}

// TestRunList smoke-tests the one success path cheap enough for a unit test.
func TestRunList(t *testing.T) {
	var out, errw strings.Builder
	if err := run([]string{"-list"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SOR", "NBMS", "Indep", "Coord_NB_FT", "failover"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list output missing %q:\n%s", want, out.String())
		}
	}
	// The failover marker belongs to the fault-tolerant pair only.
	if n := strings.Count(out.String(), "failover:"); n != 2 {
		t.Fatalf("failover marker on %d schemes, want 2:\n%s", n, out.String())
	}
}

// TestRunBadFabricFlagsFail audits the machine-shape flag error paths:
// every -topo other than a WxH mesh of at most 1<<20 nodes, and every
// out-of-range -servers, is misuse (errUsage, exit 2) and must fail before
// any cell runs, naming the bad value. The interconnect families and
// placement policies that are gone are refused the same way.
func TestRunBadFabricFlagsFail(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring the error must carry
	}{
		{[]string{"-topo", "ring:8"}, "ring:8"},
		{[]string{"-topo", "torus:2x"}, "torus:2x"},
		{[]string{"-topo", "torus:8x8"}, "torus:8x8"},
		{[]string{"-topo", "fattree:4x3"}, "fattree:4x3"},
		{[]string{"-topo", "mesh3d:4x4x4"}, "mesh3d:4x4x4"},
		{[]string{"-topo", "mesh:4x2"}, "mesh:4x2"},
		{[]string{"-topo", "4x4x4"}, "4x4x4"},
		{[]string{"-topo", "0x2"}, "0x2"},
		{[]string{"-topo", "4"}, `"4"`},
		{[]string{"-topo", "2048x1024"}, "2048x1024"},
		{[]string{"-servers", "0"}, "-servers 0"},
		{[]string{"-servers", "9"}, "-servers 9"},
		{[]string{"-topo", "4x4", "-servers", "17"}, "-servers 17"},
	}
	for _, tc := range cases {
		wantUsage(t, tc.args, tc.want)
	}
	var out, errw strings.Builder
	if err := run([]string{"-placement", "closest"}, &out, &errw); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("run(-placement closest) = %v, want an undefined-flag error", err)
	}
}

// TestRunBadFabricFlagsAreUsage: the machine shape is checked before any
// experiment is dispatched, so a bad -topo or -servers given with an -exp is
// misuse (errUsage, exit 2) and the experiment never runs.
func TestRunBadFabricFlagsAreUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "coord", "-topo", "torus:2x"},
		{"-exp", "coord", "-servers", "0"},
		{"-exp", "failover", "-topo", "0x2"},
	} {
		var out, errw strings.Builder
		if err := run(args, &out, &errw); !errors.Is(err, errUsage) {
			t.Errorf("run(%v) = %v, want errUsage", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) ran the experiment on a usage error:\n%s", args, out.String())
		}
	}
}

// TestRunScalingIgnoresServers: E10 sets its own machine, down to a 2-node
// mesh that cannot attach 4 hosts, so a -servers the default 8-node machine
// accepts must not reach its cells: the report is the one-server report.
func TestRunScalingIgnoresServers(t *testing.T) {
	var outs [2]string
	for i, args := range [][]string{
		{"-exp", "scaling", "-quick", "-servers", "4"},
		{"-exp", "scaling", "-quick"},
	} {
		var out, errw strings.Builder
		if err := run(args, &out, &errw); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		outs[i] = out.String()
	}
	if !strings.Contains(outs[0], "E10: overhead per checkpoint vs machine size") {
		t.Fatalf("no E10 table:\n%s", outs[0])
	}
	if outs[0] != outs[1] {
		t.Fatalf("-servers 4 moved E10:\n%s\nwant:\n%s", outs[0], outs[1])
	}
}
