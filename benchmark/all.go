package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// runSet is every workload's two results, untraced and traced, and the
// digest of what it simulated.
type runSet map[string]struct {
	res    [2]result
	digest string
}

// runChild runs one workload in a fresh process, exactly as the driver's
// contract has it, echoes what it printed before its result line, and parses
// that line.
func (o options) runChild(w io.Writer, wl string, trace int) (res result, digest string, err error) {
	exe, err := os.Executable()
	if err != nil {
		return res, "", err
	}
	cmd := exec.Command(exe, "--workload", wl, "--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64), "--trace", strconv.Itoa(trace),
		"-scale", o.scale, "-out", o.out)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, "", fmt.Errorf("workload %s trace %d: %w", wl, trace, err)
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(w, l)
		if d, ok := strings.CutPrefix(l, "sim_digest "+wl+" "); ok {
			digest = d
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, "", fmt.Errorf("workload %s trace %d: result line: %w", wl, trace, err)
	}
	return res, digest, nil
}

// runAll is the one command that prints every metric by name: each workload
// untraced, then traced, each in its own process.
func (o options) runAll(w io.Writer) (runSet, error) {
	set := make(runSet)
	for _, wl := range workloads {
		entry := set[wl.name]
		for trace := 0; trace <= 1; trace++ {
			res, digest, err := o.runChild(w, wl.name, trace)
			if err != nil {
				return nil, err
			}
			if trace == 1 && digest != entry.digest {
				return nil, fmt.Errorf("workload %s: traced run simulated %s, untraced %s", wl.name, digest, entry.digest)
			}
			entry.res[trace], entry.digest = res, digest
			defs := endToEndMetrics
			if trace == 1 {
				defs = perLayerMetrics
			}
			for _, d := range defs {
				bound := ""
				if trace == 0 {
					bound = fmt.Sprintf("  may worsen by %g%%", 100*d.bound)
				}
				fmt.Fprintf(w, "%-15s %-32s %16.6g %-6s %s is better%s\n",
					wl.name, d.name, res.Metrics[d.name].Value, d.unit, d.better, bound)
			}
			fmt.Fprintf(w, "%-15s %-32s %d of %d cells, correct=%v\n", wl.name, "failed", res.Failed, res.Attempted, res.Correct)
			if !res.Correct {
				return nil, fmt.Errorf("workload %s: %d of %d cells failed", wl.name, res.Failed, res.Attempted)
			}
		}
		set[wl.name] = entry
	}
	return set, nil
}

// runSelfcheck runs two complete sets back to back and fails unless every
// exact metric is identical and every end-to-end metric of the second set is
// within its bound of the first. The observed differences go to
// selfcheck.json under -out.
func (o options) runSelfcheck() error {
	first, err := o.runAll(os.Stdout)
	if err != nil {
		return err
	}
	second, err := o.runAll(os.Stdout)
	if err != nil {
		return err
	}
	spread := make(map[string]map[string]float64)
	var bad []string
	for _, wl := range workloads {
		a, b := first[wl.name].res, second[wl.name].res
		spread[wl.name] = make(map[string]float64)
		if d1, d2 := first[wl.name].digest, second[wl.name].digest; d1 != d2 {
			bad = append(bad, fmt.Sprintf("%s sim_digest: %s then %s, must repeat exactly", wl.name, d1, d2))
		}
		for _, d := range endToEndMetrics {
			va, vb := a[0].Metrics[d.name].Value, b[0].Metrics[d.name].Value
			worse := (vb - va) / va
			if d.better == "higher" {
				worse = -worse
			}
			spread[wl.name][d.name] = math.Abs(vb-va) / va
			if d.exact && va != vb {
				bad = append(bad, fmt.Sprintf("%s %s: %v then %v, must repeat exactly", wl.name, d.name, va, vb))
			} else if worse > d.bound {
				bad = append(bad, fmt.Sprintf("%s %s: %.4g then %.4g, %.1f%% worse than the %.1f%% bound",
					wl.name, d.name, va, vb, 100*worse, 100*d.bound))
			}
		}
		for _, d := range perLayerMetrics {
			va, vb := a[1].Metrics[d.name].Value, b[1].Metrics[d.name].Value
			if d.exact && va != vb {
				bad = append(bad, fmt.Sprintf("%s %s: %v then %v, must repeat exactly", wl.name, d.name, va, vb))
			}
		}
	}
	data, err := json.MarshalIndent(spread, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, "selfcheck.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: the two sets disagree:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Println("selfcheck: two sets agree: exact metrics identical, end-to-end metrics within their bounds")
	return nil
}
