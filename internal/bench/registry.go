package bench

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/ckpt"
)

// WorkloadByName resolves names like "ISING-512", "SOR-256", "GAUSS-384",
// "ASP-512", "NBODY-2048", "TSP-16", "NQUEENS-12" or "RING-100000" (a
// synthetic ring with the given per-node state bytes) into workloads with
// the benchmark default parameters.
func WorkloadByName(name string) (apps.Workload, error) {
	app, numStr, ok := strings.Cut(strings.ToUpper(name), "-")
	if !ok {
		return apps.Workload{}, fmt.Errorf("bench: workload %q is not of the form APP-SIZE", name)
	}
	n, err := strconv.Atoi(numStr)
	if err != nil || n <= 0 {
		return apps.Workload{}, fmt.Errorf("bench: bad workload size in %q", name)
	}
	switch app {
	case "ISING":
		return apps.IsingWorkload(apps.DefaultIsing(n, 100)), nil
	case "SOR":
		return apps.SORWorkload(apps.DefaultSOR(n, 100)), nil
	case "GAUSS":
		return apps.GaussWorkload(apps.DefaultGauss(n)), nil
	case "ASP":
		return apps.ASPWorkload(apps.DefaultASP(n)), nil
	case "NBODY":
		return apps.NBodyWorkload(apps.DefaultNBody(n, 10)), nil
	case "TSP":
		// One city has no tour to search; the unvisited set is one uint64.
		if n < 2 || n > apps.TSPMaxCities {
			return apps.Workload{}, fmt.Errorf("bench: %s: TSP takes 2 to %d cities", name, apps.TSPMaxCities)
		}
		return apps.TSPWorkload(apps.TSPConfig{Cities: n, Seed: 0x75b, OpsPerNode: 400}), nil
	case "NQUEENS":
		// The tasks are placements on the first two rows: a 1x1 board has none.
		if n < 2 {
			return apps.Workload{}, fmt.Errorf("bench: %s: NQUEENS takes a board of at least 2 rows", name)
		}
		return apps.NQueensWorkload(apps.DefaultNQueens(n)), nil
	case "RING":
		return syntheticWorkload(n), nil
	}
	return apps.Workload{}, fmt.Errorf("bench: unknown application %q", app)
}

// SchemeByName resolves the paper's scheme names (case-insensitive, with or
// without the "Coord_" prefix, underscores optional). The accepted set is
// driven by the ckpt variant-name table, so newly registered families show up
// here without edits.
func SchemeByName(name string) (ckpt.Variant, error) {
	want := normScheme(name)
	for _, canon := range ckpt.VariantNames() {
		if normScheme(canon) == want || normScheme(strings.TrimPrefix(canon, "Coord_")) == want {
			v, _ := ckpt.ParseVariant(canon)
			return v, nil
		}
	}
	return ckpt.Variant{}, fmt.Errorf("bench: unknown scheme %q (want one of %s)", name, strings.Join(SchemeNames(), ", "))
}

// SchemeNames lists the canonical scheme names, in variant order.
func SchemeNames() []string { return ckpt.VariantNames() }

// AppNames lists the application families WorkloadByName accepts, each with
// the example size the quick benchmarks use.
func AppNames() []string {
	return []string{
		"ISING-128", "SOR-128", "GAUSS-128", "ASP-128",
		"NBODY-256", "TSP-13", "NQUEENS-10", "RING-100000",
	}
}

func normScheme(s string) string { return strings.ReplaceAll(strings.ToLower(s), "_", "") }
