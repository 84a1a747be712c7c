package repro_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/check"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/sim"
)

// IDENTITY.txt pins the bytes this repository's refactors promise not to
// move: the rendered output of every table and experiment, one line of exact
// counters and a durable-storage digest per scheme, the oracle's cell and
// check totals, and the benchmark workloads' sim_digest. The quick section is
// a tier-1 test; the full section runs under `make identical`. A change that
// means to move an output regenerates the file (-update) and shows the
// manifest line in its diff. EXPERIMENTS.md's sample blocks are excerpts of
// the same rendered bytes and are checked against them (docs_test.go).
var (
	updateIdentity = flag.Bool("update", false, "rewrite the IDENTITY.txt section the test regenerates")
	fullIdentity   = flag.Bool("full", false, "check IDENTITY.txt's full section (minutes) instead of the quick one")
)

const identityFile = "IDENTITY.txt"

// TestIdentity regenerates one section of IDENTITY.txt in memory and diffs
// it against the committed file, then checks the EXPERIMENTS.md blocks that
// quote that section's outputs.
func TestIdentity(t *testing.T) {
	section, gen := "quick", quickIdentity
	if *fullIdentity {
		section, gen = "full", fullSectionIdentity
	}
	outputs := map[string][]byte{}
	got, err := gen(outputs)
	if err != nil {
		t.Fatal(err)
	}
	// Every checkpoint file of every cell above padded its image with borrows
	// of one shared page, from as many workers as the runner has.
	if !ckpt.ZeroPageIntact() {
		t.Error("the shared zero page was written during the run")
	}
	sections := readIdentity(t)
	checkDocBlocks(t, outputs, sections)
	if *updateIdentity {
		sections[section] = got
		writeIdentity(t, sections)
		return
	}
	want := sections[section]
	if slices.Equal(got, want) {
		return
	}
	wantByKey := map[string]string{}
	for _, l := range want {
		wantByKey[identityKey(l)] = l
	}
	for _, l := range got {
		k := identityKey(l)
		if w, ok := wantByKey[k]; !ok {
			t.Errorf("%s: line not in %s:\n  got  %s", section, identityFile, l)
		} else if w != l {
			t.Errorf("%s: %s moved:\n  want %s\n  got  %s", section, k, w, l)
		}
		delete(wantByKey, k)
	}
	for _, w := range want {
		if _, left := wantByKey[identityKey(w)]; left {
			t.Errorf("%s: line no longer generated:\n  want %s", section, w)
		}
	}
	if !t.Failed() {
		t.Errorf("%s: same lines, different order", section)
	}
	t.Logf("if the change is meant to move these bytes: go test -run TestIdentity -update . (add -full for the full section)")
}

// identityKey is a manifest line's name: everything before the tab.
func identityKey(line string) string {
	k, _, _ := strings.Cut(line, "\t")
	return k
}

var identitySections = []string{"quick", "full"}

func readIdentity(t *testing.T) map[string][]string {
	t.Helper()
	sections := map[string][]string{}
	f, err := os.Open(identityFile)
	if os.IsNotExist(err) && *updateIdentity {
		return sections
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cur := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "## "):
			cur = strings.TrimPrefix(line, "## ")
		case line == "" || strings.HasPrefix(line, "#"):
		default:
			sections[cur] = append(sections[cur], line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sections
}

func writeIdentity(t *testing.T, sections map[string][]string) {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("# Exact expectations, regenerated on purpose; see identity_test.go.\n")
	b.WriteString("#   quick: go test -run TestIdentity [-update] .\n")
	b.WriteString("#   full:  make identical [UPDATE=-update]\n")
	for _, name := range identitySections {
		fmt.Fprintf(&b, "\n## %s\n", name)
		for _, l := range sections[name] {
			b.WriteString(l + "\n")
		}
	}
	if err := os.WriteFile(identityFile, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// outputLine digests one rendered table or experiment, and keeps its bytes
// in outputs under the line's name for the EXPERIMENTS.md blocks that quote
// it.
func outputLine(outputs map[string][]byte, name string, render func(io.Writer) error) (string, error) {
	var b bytes.Buffer
	if err := render(&b); err != nil {
		return "", fmt.Errorf("%s: %w", name, err)
	}
	outputs[name] = b.Bytes()
	return fmt.Sprintf("%s\tsha256=%x bytes=%d", name, sha256.Sum256(b.Bytes()), b.Len()), nil
}

// tableLines renders Tables 1-3 the way `chkbench -table all` does (Tables
// 2 and 3 share one matrix of runs, which on the quick grid is Table 1's),
// one manifest line per table.
func tableLines(outputs map[string][]byte, r *bench.Runner, quick bool, prefix string) ([]string, error) {
	ctx := context.Background()
	cfg := par.DefaultConfig()
	wl1 := bench.Table1Workloads()
	if quick {
		wl1 = bench.QuickWorkloads()
	}
	rows1, err := r.MeasureRows(ctx, cfg, wl1, bench.Table1Schemes, 3)
	if err != nil {
		return nil, err
	}
	rows2 := rows1
	if !quick {
		if rows2, err = r.MeasureRows(ctx, cfg, bench.Table2Workloads(), bench.Table2Schemes, 3); err != nil {
			return nil, err
		}
	}
	var lines []string
	for _, tb := range []struct {
		n     string
		write func(io.Writer, []bench.Row)
		rows  []bench.Row
	}{{"1", bench.WriteTable1, rows1}, {"2", bench.WriteTable2, rows2}, {"3", bench.WriteTable3, rows2}} {
		l, _ := outputLine(outputs, prefix+" -table "+tb.n, func(w io.Writer) error { tb.write(w, tb.rows); return nil })
		lines = append(lines, l)
	}
	return lines, nil
}

// quickIdentity is the tier-1 half: every table and experiment on its -quick
// grid, then one fixed small run per scheme.
func quickIdentity(outputs map[string][]byte) ([]string, error) {
	r := bench.NewRunner(0, nil)
	cfg := par.DefaultConfig()
	lines, err := tableLines(outputs, r, true, "chkbench -quick")
	if err != nil {
		return nil, err
	}
	// The catalogue, the two fixed-parameter recovery demos at its end included.
	for _, e := range bench.Experiments {
		l, err := outputLine(outputs, "chkbench -quick -exp "+e.Name, func(w io.Writer) error {
			return e.Run(context.Background(), w, cfg, true, r)
		})
		if err != nil {
			return nil, err
		}
		lines = append(lines, l)
	}
	wl := bench.RingWorkload(256, 40, 2e5)
	normal, err := core.Run(wl, core.Default())
	if err != nil {
		return nil, err
	}
	for _, name := range bench.SchemeNames() {
		l, err := schemeLine(name, wl, normal.Exec/4)
		if err != nil {
			return nil, err
		}
		lines = append(lines, l)
	}
	for _, name := range []string{
		"RING-256B-i40/Coord_NBM#5",
		"RING-256B-i40/Indep_M#5",
		"RING-256B-i40/CIC#5",
		"RING-256B-i40/Coord_NB_INC#13", // a base+delta chain read back
		"RING-512B-i40/Indep_INC#3",
		"RING-384B-i40/Coord_NB_FT#4", // a kill at pre-commit
		"RING-384B-i40/Coord_NB_FT",   // rep 0: a kill at round
	} {
		l, err := oracleLine(cfg, name)
		if err != nil {
			return nil, err
		}
		lines = append(lines, l)
	}
	return lines, nil
}

// oracleLine runs one oracle cell of `chkcheck -quick`'s lattice, resolved
// by name as `chkcheck -cell` does, and pins its trajectory: the crash
// instant, what recovery restored, the execution time and the number of
// invariant checks.
func oracleLine(cfg par.Config, name string) (string, error) {
	mcfg, _, spec, err := check.Resolve(check.Lattice(cfg, false), name)
	if err != nil {
		return "", err
	}
	res, err := check.NewOracle(mcfg).RunCell(spec)
	if err != nil {
		return "", fmt.Errorf("%s: %w", name, err)
	}
	line := make([]string, len(res.Line))
	for i, idx := range res.Line {
		line[i] = fmt.Sprint(idx)
	}
	return fmt.Sprintf("oracle cell %s\tcrash_ns=%d round=%d line=%s exec_ns=%d checks=%d",
		name, int64(res.CrashAt), res.Round, strings.Join(line, ","), int64(res.Exec), res.Checks), nil
}

// schemeLine runs the oracle's small ring under one scheme for three
// checkpoints (interval: a quarter of the checkpoint-free run) and pins everything exact about it: execution time, every
// counter, a digest of the durable area — path, length and content hash
// of every file, which fixes the record format byte for byte — and the
// engine's event-loop counters.
func schemeLine(name string, wl apps.Workload, interval sim.Duration) (string, error) {
	v, ok := ckpt.ParseVariant(name)
	if !ok {
		return "", fmt.Errorf("scheme %q does not parse", name)
	}
	run := core.Start(wl, core.Config{Machine: par.DefaultConfig(), Scheme: v, Interval: interval, MaxCheckpoints: 3})
	res, err := run.Finish()
	if err != nil {
		return "", fmt.Errorf("%s: %w", name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scheme %s\texec_ns=%d", name, int64(res.Exec))
	st := reflect.ValueOf(res.Ckpt)
	for i := 0; i < st.NumField(); i++ {
		fmt.Fprintf(&b, " %s=%d", st.Type().Field(i).Name, st.Field(i).Interface())
	}
	durable := sha256.New()
	files := 0
	for si, store := range run.M.Stores {
		for _, path := range store.DurablePaths() {
			data, _ := store.Peek(path, nil)
			fmt.Fprintf(durable, "%d %s %d %x\n", si, path, len(data), sha256.Sum256(data))
			files++
		}
	}
	fmt.Fprintf(&b, " records=%d files=%d durable=%x", len(res.Records), files, durable.Sum(nil))
	es := run.M.Eng.Stats()
	fmt.Fprintf(&b, " events=%d pushes=%d max_queue_depth=%d procs=%d", es.Pops, es.Pushes, es.MaxQueueDepth, es.ProcsSpawned)
	return b.String(), nil
}

// fullSectionIdentity is the slow half: the full-size tables and recovery
// experiments, the oracle's quick and full sweep totals, and the benchmark workloads'
// simulation digests at seed 7.
func fullSectionIdentity(outputs map[string][]byte) ([]string, error) {
	r := bench.NewRunner(0, nil)
	cfg := par.DefaultConfig()
	lines, err := tableLines(outputs, r, false, "chkbench")
	if err != nil {
		return nil, err
	}
	// The four catalogue entries whose full grids differ in kind from their
	// quick ones (1024-node cells, the 480 s MTTF column, every kill window),
	// then the full-size runs EXPERIMENTS.md quotes whose quick ones differ.
	for _, exp := range []string{"scale", "avail", "failover", "domino", "storage", "stagger", "interval"} {
		l, err := outputLine(outputs, "chkbench -exp "+exp, func(w io.Writer) error {
			return bench.RunExperiment(context.Background(), w, exp, cfg, false, r)
		})
		if err != nil {
			return nil, err
		}
		lines = append(lines, l)
	}
	// chkcheck's two modes, each one lattice.
	for _, mode := range []string{"-quick", "-full"} {
		rep, err := check.Sweep(context.Background(), check.Lattice(cfg, mode == "-full"), 0, nil)
		if err != nil {
			return nil, err
		}
		lines = append(lines, fmt.Sprintf("chkcheck %s\tcells=%d recovered=%d checks=%d", mode, rep.Cells, rep.Recovered, rep.Checks))
	}
	for _, wl := range []string{"paper-tables", "scale-256", "ckpt-bulk", "ckpt-inc", "oracle-recover"} {
		out, err := exec.Command("bash", "benchmark/run.sh", "--workload", wl, "--seed", "7", "--seconds", "10", "--trace", "0").Output()
		if err != nil {
			return nil, fmt.Errorf("benchmark %s: %w", wl, err)
		}
		digest := ""
		for _, l := range strings.Split(string(out), "\n") {
			if d, ok := strings.CutPrefix(l, "sim_digest "+wl+" "); ok {
				digest = d
			}
		}
		if digest == "" {
			return nil, fmt.Errorf("benchmark %s printed no sim_digest", wl)
		}
		lines = append(lines, fmt.Sprintf("benchmark --workload %s --seed 7\tsim_digest=%s", wl, digest))
	}
	return lines, nil
}
