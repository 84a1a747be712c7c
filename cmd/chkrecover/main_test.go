package main

import (
	"errors"
	"flag"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestHelpListsProfilingFlags guards against flag-help drift: -h must list
// the host-profiling flags shared by every command (internal/perf), the two
// demos and every experiment of the catalogue, and the help request itself
// must surface as flag.ErrHelp (main exits 2).
func TestHelpListsProfilingFlags(t *testing.T) {
	var out, errw strings.Builder
	err := run([]string{"-h"}, &out, &errw)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("err = %v, want flag.ErrHelp", err)
	}
	for _, want := range append([]string{"-cpuprofile", "-memprofile", "-pprof", "coord", "logging"}, bench.ExperimentNames()...) {
		if !strings.Contains(errw.String(), want) {
			t.Fatalf("-h output missing %q:\n%s", want, errw.String())
		}
	}
}

// TestRunUnknownExperimentIsUsage pins the distinct exit paths: misuse is
// errUsage (exit 2), a failing experiment is a plain error (exit 1). The
// message lists every name -exp accepts.
func TestRunUnknownExperimentIsUsage(t *testing.T) {
	var out, errw strings.Builder
	err := run([]string{"-exp", "bogus"}, &out, &errw)
	if !errors.Is(err, errUsage) {
		t.Fatalf("err = %v, want errUsage", err)
	}
	for _, want := range append([]string{`"bogus"`, "coord", "logging"}, bench.ExperimentNames()...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want it to mention %s", err, want)
		}
	}
}

// TestRunUnknownSchemeFails covers -exp coord's resolution error path, which
// previously could only be observed as a process exit.
func TestRunUnknownSchemeFails(t *testing.T) {
	var out, errw strings.Builder
	err := run([]string{"-exp", "coord", "-scheme", "NOPE"}, &out, &errw)
	if err == nil || errors.Is(err, errUsage) {
		t.Fatalf("err = %v, want a non-usage failure", err)
	}
	if out.Len() != 0 {
		t.Fatalf("stdout not empty on failure:\n%s", out.String())
	}
}

// TestRunBadKillPhaseIsUsage: an -exp failover kill-window typo is
// command-line misuse, so it must surface as errUsage (exit 2), name the bad
// value, and run no cells.
func TestRunBadKillPhaseIsUsage(t *testing.T) {
	var out, errw strings.Builder
	err := run([]string{"-exp", "failover", "-killphase", "bogus"}, &out, &errw)
	if !errors.Is(err, errUsage) {
		t.Fatalf("err = %v, want errUsage", err)
	}
	for _, want := range []string{`"bogus"`, "precommit"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want it to mention %q", err, want)
		}
	}
	if out.Len() != 0 {
		t.Fatalf("stdout not empty on a usage error:\n%s", out.String())
	}
}

// TestRunBadFlagFails proves flag misuse surfaces as an error (main exits 2).
func TestRunBadFlagFails(t *testing.T) {
	var out, errw strings.Builder
	if err := run([]string{"-no-such-flag"}, &out, &errw); err == nil {
		t.Fatal("run with an unknown flag returned nil")
	}
}

// TestRunBadFabricFlagsAreUsage audits the topology/sharding flag error
// paths: malformed -topo, out-of-range -servers and unknown -placement are
// command-line misuse, so they must surface as errUsage (exit 2) and name
// the bad value.
func TestRunBadFabricFlagsAreUsage(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring the error must carry
	}{
		{[]string{"-topo", "ring:8"}, "ring:8"},
		{[]string{"-topo", "torus:2x"}, "torus:2x"},
		{[]string{"-servers", "0"}, "-servers 0"},
		{[]string{"-servers", "9"}, "-servers 9"},
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
		if out.Len() != 0 {
			t.Errorf("run(%v) wrote to stdout on a usage error:\n%s", tc.args, out.String())
		}
	}
}
