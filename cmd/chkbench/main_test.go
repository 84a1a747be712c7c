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

// TestHelpListsRecoveryDemos: the E7 and E11 recovery demos are catalogue
// entries, so -h lists them under -exp, and they sit at the end of the
// catalogue, which keeps every earlier experiment at its IDENTITY.txt line.
func TestHelpListsRecoveryDemos(t *testing.T) {
	var out, errw strings.Builder
	if err := run([]string{"-h"}, &out, &errw); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("err = %v, want flag.ErrHelp", err)
	}
	for _, want := range []string{"coord     E7", "logging   E11"} {
		if !strings.Contains(errw.String(), want) {
			t.Fatalf("-h output missing %q:\n%s", want, errw.String())
		}
	}
	names := bench.ExperimentNames()
	if tail := names[len(names)-2:]; tail[0] != "coord" || tail[1] != "logging" {
		t.Fatalf("catalogue ends with %v, want [coord logging]", tail)
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
// the catalogue holds, so the message is its own usage line.
func TestRunUnknownExperimentListsCatalogue(t *testing.T) {
	var out, errw strings.Builder
	err := run([]string{"-exp", "bogus"}, &out, &errw)
	if !errors.Is(err, errUsage) {
		t.Fatalf("run(-exp bogus) = %v, want errUsage", err)
	}
	for _, want := range append([]string{`"bogus"`}, bench.ExperimentNames()...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list %s", err, want)
		}
	}
	if out.Len() != 0 {
		t.Fatalf("stdout not empty on a usage error:\n%s", out.String())
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
// a non-zero exit: workload, scheme, and experiment resolution.
func TestRunUnknownNamesFail(t *testing.T) {
	for _, args := range [][]string{
		{"-metrics", "-app", "NOPE-1"},
		{"-metrics", "-scheme", "NOPE"},
		{"-exp", "bogus"},
	} {
		var out, errw strings.Builder
		if err := run(args, &out, &errw); err == nil {
			t.Errorf("run(%v) = nil, want error", args)
		}
	}
}

// TestRunBadFlagFails proves flag misuse surfaces as an error (main exits 2).
func TestRunBadFlagFails(t *testing.T) {
	var out, errw strings.Builder
	if err := run([]string{"-no-such-flag"}, &out, &errw); err == nil {
		t.Fatal("run with an unknown flag returned nil")
	}
}

// TestRunRecoveryDemoFlagsFail: -exp coord and -exp logging run at fixed
// parameters, so the knobs a demo once took (-interval, -crash, -seed,
// -killphase) are not flags and must be rejected before anything runs.
func TestRunRecoveryDemoFlagsFail(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "coord", "-interval", "1s"},
		{"-exp", "coord", "-crash", "5s"},
		{"-exp", "logging", "-seed", "7"},
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

// TestRunBadFabricFlagsFail audits the topology/sharding flag error paths:
// every malformed -topo, out-of-range -servers or unknown -placement is
// misuse (errUsage, exit 2) and must fail before any cell runs, naming the
// bad value and pointing at -list.
func TestRunBadFabricFlagsFail(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring the error must carry
	}{
		{[]string{"-topo", "ring:8"}, "ring:8"},
		{[]string{"-topo", "torus:2x"}, "torus:2x"},
		{[]string{"-topo", "mesh:0x2"}, "mesh:0x2"},
		{[]string{"-topo", "mesh:4"}, "mesh:4"},
		{[]string{"-topo", "fattree:1x3"}, "fattree:1x3"},
		{[]string{"-servers", "0"}, "-servers 0"},
		{[]string{"-servers", "9"}, "-servers 9"},
		{[]string{"-topo", "mesh:4x4", "-servers", "17"}, "-servers 17"},
		{[]string{"-placement", "closest"}, "closest"},
	}
	for _, tc := range cases {
		var out, errw strings.Builder
		err := run(tc.args, &out, &errw)
		if !errors.Is(err, errUsage) {
			t.Errorf("run(%v) = %v, want errUsage", tc.args, err)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) error %q does not name %q", tc.args, err, tc.want)
		}
		if !strings.Contains(err.Error(), "-list") {
			t.Errorf("run(%v) error %q does not point at -list", tc.args, err)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) wrote to stdout on a usage error:\n%s", tc.args, out.String())
		}
	}
}

// TestRunBadFabricFlagsAreUsage: the machine shape is checked before any
// experiment is dispatched, so a bad -topo, -servers or -placement given with
// an -exp is misuse (errUsage, exit 2) and the experiment never runs.
func TestRunBadFabricFlagsAreUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "coord", "-topo", "torus:2x"},
		{"-exp", "logging", "-servers", "0"},
		{"-exp", "failover", "-placement", "closest"},
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

// TestRunListNamesTopologiesAndPlacements pins the -list sections the
// topology subsystem added.
func TestRunListNamesTopologiesAndPlacements(t *testing.T) {
	var out, errw strings.Builder
	if err := run([]string{"-list"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mesh:WxH", "mesh3d:XxYxZ", "torus:WxH", "fattree:AxL", "stripe", "hash", "nearest"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list output missing %q:\n%s", want, out.String())
		}
	}
}
