package fabric

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// meshNet builds an idle network over a w×h mesh with the test link costs.
func meshNet(w, h int) *Network {
	cfg := testConfig()
	cfg.MeshW, cfg.MeshH = w, h
	return New(sim.New(), cfg)
}

// route returns the vertices Path visits after src, ending with dst; nil
// when src == dst. It fails t if the hops do not join up.
func route(t *testing.T, n *Network, src, dst NodeID) []NodeID {
	t.Helper()
	var out []NodeID
	cur := src
	for _, h := range n.Path(src, dst) {
		if h[0] != cur {
			t.Fatalf("Path(%d,%d) leaves %d after arriving at %d", src, dst, h[0], cur)
		}
		cur = h[1]
		out = append(out, cur)
	}
	return out
}

// TestRouteDeliversAllPairs is the routing property test: on every mesh,
// every compute (src,dst) pair's route ends at dst, visits no vertex twice,
// and is deterministic. Path panics on a step over an undeclared link, so
// the walk also proves every hop is a mesh link.
func TestRouteDeliversAllPairs(t *testing.T) {
	for _, dims := range [][2]int{{4, 2}, {1, 6}, {5, 3}, {16, 16}} {
		n := meshNet(dims[0], dims[1])
		nodes := NodeID(n.cfg.Nodes())
		seen := make([]int, nodes) // seen[v] == stamp: v already on this route
		stamp := 0
		for src := NodeID(0); src < nodes; src++ {
			for dst := NodeID(0); dst < nodes; dst++ {
				path := route(t, n, src, dst)
				if src == dst {
					if len(path) != 0 {
						t.Fatalf("%dx%d: route(%d,%d) = %v, want empty", dims[0], dims[1], src, dst, path)
					}
					continue
				}
				if len(path) == 0 || path[len(path)-1] != dst {
					t.Fatalf("%dx%d: route(%d,%d) = %v does not end at dst", dims[0], dims[1], src, dst, path)
				}
				stamp++
				seen[src] = stamp
				for _, v := range path {
					if seen[v] == stamp {
						t.Fatalf("%dx%d: route(%d,%d) = %v visits %d twice", dims[0], dims[1], src, dst, path, v)
					}
					seen[v] = stamp
				}
				if again := route(t, n, src, dst); !reflect.DeepEqual(again, path) {
					t.Fatalf("%dx%d: route(%d,%d) not deterministic: %v vs %v", dims[0], dims[1], src, dst, path, again)
				}
			}
		}
	}
}

// referenceRoute is the whole-path XY routing the mesh implemented before
// stepping became the primitive: x corrected first, then y. It is retired
// from the build and kept here as the reference TestPathWalksReferenceRoutes
// holds the stepped routing to; it must not change with fabric.go.
func referenceRoute(w int, src, dst NodeID) []NodeID {
	sign := func(d int) int {
		if d < 0 {
			return -1
		}
		return 1
	}
	var path []NodeID
	cx, cy := int(src)%w, int(src)/w
	dx, dy := int(dst)%w, int(dst)/w
	for cx != dx {
		cx += sign(dx - cx)
		path = append(path, NodeID(cy*w+cx))
	}
	for cy != dy {
		cy += sign(dy - cy)
		path = append(path, NodeID(cy*w+cx))
	}
	return path
}

// TestPathWalksReferenceRoutes is the routing-equivalence test: on every
// mesh, Path from every compute node to every other reproduces the retired
// whole-path builder's route exactly. The fabric steps messages hop by hop
// and its differential reference takes its paths from the same stepping, so
// this — not the schedule differential — is what pins which links a pair's
// traffic crosses.
func TestPathWalksReferenceRoutes(t *testing.T) {
	for _, dims := range [][2]int{{4, 2}, {5, 3}, {16, 16}} {
		n := meshNet(dims[0], dims[1])
		nodes := NodeID(n.cfg.Nodes())
		for src := NodeID(0); src < nodes; src++ {
			for dst := NodeID(0); dst < nodes; dst++ {
				want := referenceRoute(dims[0], src, dst)
				if got := route(t, n, src, dst); !reflect.DeepEqual(got, want) {
					t.Fatalf("%dx%d: Path from %d to %d visits %v, reference route %v", dims[0], dims[1], src, dst, got, want)
				}
			}
		}
	}
}

// TestMeshGoldenRoutes pins the default 2×4 mesh's XY routes to the exact
// hop sequences the legacy fabric produced (x correction first, then y), the
// routing half of the byte-identity guarantee for Tables 1–3.
func TestMeshGoldenRoutes(t *testing.T) {
	n := meshNet(4, 2) // ids: row 0 = 0..3, row 1 = 4..7
	for _, c := range []struct {
		src, dst NodeID
		want     []NodeID
	}{
		{0, 0, nil},
		{0, 1, []NodeID{1}},
		{0, 3, []NodeID{1, 2, 3}},
		{0, 7, []NodeID{1, 2, 3, 7}},
		{3, 4, []NodeID{2, 1, 0, 4}},
		{7, 0, []NodeID{6, 5, 4, 0}},
		{5, 2, []NodeID{6, 2}},
	} {
		if got := route(t, n, c.src, c.dst); !reflect.DeepEqual(got, c.want) {
			t.Errorf("route(%d,%d) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}
