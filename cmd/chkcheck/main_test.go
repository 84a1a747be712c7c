package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/check"
)

// TestHelpListsProfilingFlags guards against flag-help drift: -h must list
// the host-profiling flags shared by every command (internal/perf), and the
// help request itself must surface as flag.ErrHelp (main exits 2).
func TestHelpListsProfilingFlags(t *testing.T) {
	var out, errw strings.Builder
	err := run([]string{"-h"}, &out, &errw)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("err = %v, want flag.ErrHelp", err)
	}
	for _, want := range []string{"-cpuprofile", "-memprofile", "-pprof"} {
		if !strings.Contains(errw.String(), want) {
			t.Fatalf("-h output missing %q:\n%s", want, errw.String())
		}
	}
}

// TestRunSingleCell reproduces one cell of each protocol family end to end
// through the command seam — the same path `chkcheck -cell NAME` takes when a
// user replays a CI failure.
func TestRunSingleCell(t *testing.T) {
	for _, name := range []string{
		"RING-256B-i40/Coord_NBM#5",
		"RING-256B-i40/Indep_M#5",
		"RING-256B-i40/CIC#5",
	} {
		var out, errw strings.Builder
		if err := run([]string{"-cell", name}, &out, &errw); err != nil {
			t.Fatalf("run(-cell %s): %v", name, err)
		}
		if !strings.Contains(out.String(), "checks ok") || !strings.Contains(out.String(), "seed") {
			t.Fatalf("report missing trajectory:\n%s", out.String())
		}
	}
}

// TestRunCellRepZeroSpelling: rep 0 prints without "#0", but numbering a
// cell's reps from the failure reports' "#1", "#2", … a user writes "#0";
// both spellings replay the same cell, seed and trajectory.
func TestRunCellRepZeroSpelling(t *testing.T) {
	var outs [2]strings.Builder
	for i, name := range []string{"RING-384B-i40/Coord_NB_FT", "RING-384B-i40/Coord_NB_FT#0"} {
		var errw strings.Builder
		if err := run([]string{"-cell", name}, &outs[i], &errw); err != nil {
			t.Fatalf("run(-cell %s): %v", name, err)
		}
	}
	if outs[0].String() != outs[1].String() {
		t.Fatalf("the two spellings of rep 0 ran apart:\n%s%s", outs[0].String(), outs[1].String())
	}
}

// TestRunUnknownCellFails: a cell name outside the lattice is misuse
// (errUsage, exit 2), not a silent no-op exit and not a failing cell; the
// error names the workloads of the mode's whole lattice, not of one part.
func TestRunUnknownCellFails(t *testing.T) {
	var out, errw strings.Builder
	err := run([]string{"-cell", "NOPE/Coord_NB#1"}, &out, &errw)
	if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), "no cell named") ||
		!strings.Contains(err.Error(), "RING-256B-i40, ASYNC-256, RING-512B-i40, RING-384B-i40") {
		t.Fatalf("err = %v, want unknown-cell usage error naming the -quick lattice", err)
	}
}

// TestRunFlagValidation covers the mutually-exclusive and dependent flags:
// each is misuse (errUsage, exit 2), as a bad flag is.
func TestRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "-full"},
		{"-trace", "x.json"}, // -trace without -cell
		{"-no-such-flag"},
	} {
		var out, errw strings.Builder
		if err := run(args, &out, &errw); !errors.Is(err, errUsage) {
			t.Errorf("run(%v) = %v, want errUsage", args, err)
		}
	}
}

// TestWriteSeedlist exercises the CI-artifact writer against a fabricated
// sweep failure wrapped the way the runner wraps it.
func TestWriteSeedlist(t *testing.T) {
	c := bench.Cell{App: "RING-256B-i40", Scheme: "CIC", Rep: 7}
	cause := &check.CellError{Cell: c, Seed: c.Seed(), Err: errors.New("invariant violated")}
	wrapped := fmt.Errorf("%s (seed %#x): %w", c.Name(), c.Seed(), cause)

	path := filepath.Join(t.TempDir(), "failing-seeds.txt")
	if err := writeSeedlist(path, false, wrapped); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		c.Name(),
		fmt.Sprintf("seed=%#x", c.Seed()),
		"-quick -cell",
		"invariant violated",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("seedlist missing %q:\n%s", want, body)
		}
	}

	// A non-cell failure (cancellation, baseline error) writes nothing.
	other := filepath.Join(t.TempDir(), "none.txt")
	if err := writeSeedlist(other, true, errors.New("context canceled")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(other); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("seedlist written for a non-cell error (stat err %v)", err)
	}
}
