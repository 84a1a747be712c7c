// Placement policies map compute ranks onto storage shards. The machine
// layer (package par) resolves a policy once at build time into a static
// rank→server table, so placement never costs virtual time and every layer
// above — schemes, oracle, recovery — addresses the same shard for a rank's
// files during save and recovery alike.
package storage

import (
	"fmt"
	"strings"

	"repro/internal/rng"
)

// Placement assigns each compute rank the storage server holding its files.
type Placement interface {
	// Assign returns, for each of ranks ranks, the index (0..servers-1) of
	// its server. dist reports the routing hop count from a rank to a
	// server's attach point; policies that ignore locality ignore it. The
	// result is deterministic in its inputs.
	Assign(ranks, servers int, dist func(rank, server int) int) []int
}

// stripePlacement is round-robin striping: rank r on server r mod N. The
// default — perfectly balanced and oblivious to topology.
type stripePlacement struct{}

func (stripePlacement) Assign(ranks, servers int, _ func(int, int) int) []int {
	out := make([]int, ranks)
	for r := range out {
		out[r] = r % servers
	}
	return out
}

// hashPlacement shards by a splitmix64 hash of the rank: balanced in
// expectation and stable under machine growth (rank r keeps its server when
// more ranks are added, unlike striping).
type hashPlacement struct{}

func (hashPlacement) Assign(ranks, servers int, _ func(int, int) int) []int {
	out := make([]int, ranks)
	for r := range out {
		out[r] = rng.New(uint64(r)).Intn(servers)
	}
	return out
}

// nearestPlacement sends each rank to the server with the fewest routing
// hops to its attach point, breaking ties toward the lowest server index —
// minimal checkpoint traffic on the interconnect, at the cost of balance.
type nearestPlacement struct{}

func (nearestPlacement) Assign(ranks, servers int, dist func(rank, server int) int) []int {
	out := make([]int, ranks)
	for r := range out {
		best, bestD := 0, dist(r, 0)
		for s := 1; s < servers; s++ {
			if d := dist(r, s); d < bestD {
				best, bestD = s, d
			}
		}
		out[r] = best
	}
	return out
}

// ParsePlacement resolves a policy by name; the empty string means the
// default ("stripe").
func ParsePlacement(name string) (Placement, error) {
	switch name {
	case "", "stripe":
		return stripePlacement{}, nil
	case "hash":
		return hashPlacement{}, nil
	case "nearest":
		return nearestPlacement{}, nil
	}
	return nil, fmt.Errorf("unknown placement policy %q (want %s)", name, strings.Join(placementKeys(), ", "))
}

func placementKeys() []string { return []string{"stripe", "hash", "nearest"} }

// PlacementNames lists the available policies for -list style output.
func PlacementNames() []string {
	return []string{
		"stripe  - round-robin: rank r on server r mod N (balanced; the default)",
		"hash    - splitmix64(rank) mod N: balanced in expectation, stable under growth",
		"nearest - fewest routing hops to a server attach point (lowest index on ties)",
	}
}
