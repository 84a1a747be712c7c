package bench

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/par"
)

// TestExperimentsParallelDeterminism: every report is assembled from per-cell
// results that land by index, and every seed derives from cell coordinates,
// so each catalogue entry must render byte-identical output whether its cells
// ran serially or raced over 8 workers. The last case is E14's largest
// full-grid cell — 1024 nodes, storage striped over 16 servers — under one
// scheme (CIC, which runs at every grid size) to keep it affordable.
func TestExperimentsParallelDeterminism(t *testing.T) {
	cases := append([]Experiment(nil), Experiments...)
	cases = append(cases, Experiment{Name: "scale-1024n-16s",
		Run: func(ctx context.Context, w io.Writer, cfg par.Config, _ bool, r *Runner) error {
			grid := []ScaleCell{{MeshW: 4, MeshH: 2, Servers: 1}, {MeshW: 32, MeshH: 32, Servers: 16}}
			return ScaleExperimentGrid(ctx, w, cfg, grid, []ckpt.Variant{ckpt.CIC}, r)
		}})
	// What each report must at least say, beyond being reproducible.
	content := map[string][]string{
		"domino":   {"rollback"},
		"failover": {"Coord_NB_FT", "adopted", "aborted", "precommit"},
	}
	for _, e := range cases {
		t.Run(e.Name, func(t *testing.T) {
			var serial, parallel bytes.Buffer
			if err := e.Run(context.Background(), &serial, par.DefaultConfig(), true, NewRunner(1, nil)); err != nil {
				t.Fatal(err)
			}
			if err := e.Run(context.Background(), &parallel, par.DefaultConfig(), true, NewRunner(8, nil)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
				t.Fatalf("output differs between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
					serial.String(), parallel.String())
			}
			if serial.Len() == 0 {
				t.Fatal("no output")
			}
			for _, want := range content[e.Name] {
				if !strings.Contains(serial.String(), want) {
					t.Fatalf("output missing %q:\n%s", want, serial.String())
				}
			}
		})
	}
}

// TestExperimentsHonourCancellation: a cancelled context must surface as
// context.Canceled from every catalogue entry, with nothing written — a
// report is rendered only after all of its cells finished.
func TestExperimentsHonourCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range Experiments {
		var out bytes.Buffer
		err := RunExperiment(ctx, &out, e.Name, par.DefaultConfig(), true, NewRunner(2, nil))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", e.Name, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: wrote a partial report after cancellation:\n%s", e.Name, out.String())
		}
	}
}

// TestCatalogueMatchesDocs keeps the prose on the table: every `-exp NAME`
// the documentation and chkbench's doc comment mention is a catalogue name,
// and every catalogue ID has its E<n> heading in EXPERIMENTS.md.
func TestCatalogueMatchesDocs(t *testing.T) {
	known := map[string]bool{"NAME": true}
	for _, e := range Experiments {
		known[e.Name] = true
	}
	read := func(path string) string {
		b, err := os.ReadFile("../../" + path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	mention := regexp.MustCompile(`-exp[ =]([A-Za-z]+)`)
	for _, path := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "cmd/chkbench/main.go"} {
		text := read(path)
		if strings.HasSuffix(path, ".go") {
			text, _, _ = strings.Cut(text, "\npackage main") // the doc comment
		}
		for _, m := range mention.FindAllStringSubmatch(text, -1) {
			if !known[m[1]] {
				t.Errorf("%s mentions -exp %s, which is not in the catalogue", path, m[1])
			}
		}
	}
	experiments := read("EXPERIMENTS.md")
	for _, e := range Experiments {
		if !regexp.MustCompile(`(?m)^#+ .*\b` + e.ID + `\b`).MatchString(experiments) {
			t.Errorf("EXPERIMENTS.md has no heading for %s (-exp %s)", e.ID, e.Name)
		}
	}
}
