package core_test

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/core"
)

// Example measures the overhead of the paper's best scheme on a small SOR
// instance. Because the simulation is deterministic, the numbers are exact.
func Example() {
	wl := apps.SORWorkload(apps.DefaultSOR(64, 30))
	base, err := core.Run(wl, core.Default())
	if err != nil {
		panic(err)
	}
	cfg := core.Default().WithScheme(ckpt.CoordNBMS, base.Exec/4, 3)
	res, err := core.Run(wl, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("scheme=%s checkpointed=%v verified=yes\n", res.Scheme, res.Ckpt.Rounds >= 1)
	fmt.Printf("overhead positive: %v\n", res.Exec > base.Exec)
	// Output:
	// scheme=Coord_NBMS checkpointed=true verified=yes
	// overhead positive: true
}

// Example_staggering shows why the paper's _NBMS scheme wins: one checkpoint
// halfway through a small SOR run, and the instant each node's checkpoint
// became durable. Under Coord_NB the eight writes leave together, queue at
// the shared host link and disk, and every application stays blocked until
// its own write drains; under Coord_NBMS the token ring hands the storage
// path to one node at a time while the applications compute on from their
// memory copies, so the overhead nearly vanishes.
func Example_staggering() {
	wl := apps.SORWorkload(apps.DefaultSOR(64, 30))
	base, err := core.Run(wl, core.Default())
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s, normal execution %.3fs\n", wl.Name, base.Exec.Seconds())
	for _, v := range []ckpt.Variant{ckpt.CoordNB, ckpt.CoordNBMS} {
		cfg := core.Default()
		cfg.Scheme, cfg.FirstAt, cfg.MaxCheckpoints = v, base.Exec/2, 1
		res, err := core.Run(wl, cfg)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10s +%.3fs, durable at", res.Scheme, (res.Exec - base.Exec).Seconds())
		for _, rec := range res.Records {
			fmt.Printf(" n%d@%.3fs", rec.Rank, rec.At.Seconds())
		}
		fmt.Println()
	}
	// Output:
	// SOR-64, normal execution 0.970s
	// Coord_NB   +1.096s, durable at n0@0.861s n4@1.034s n1@1.122s n5@1.209s n2@1.337s n3@1.424s n6@1.511s n7@1.598s
	// Coord_NBMS +0.075s, durable at n0@0.651s n1@0.859s n2@1.115s n3@1.409s n4@1.613s n5@1.862s n6@2.156s n7@2.494s
}
