package topo

import (
	"reflect"
	"testing"
)

// instances covers every family at several shapes, including the degenerate
// ones (1-wide meshes, 2-rings whose wrap link coincides with the mesh link).
func instances() []Topology {
	return []Topology{
		Mesh2D{W: 4, H: 2},
		Mesh2D{W: 1, H: 6},
		Mesh2D{W: 8, H: 8},
		Mesh3D{X: 3, Y: 2, Z: 4},
		Mesh3D{X: 4, Y: 4, Z: 4},
		Torus2D{W: 2, H: 2},
		Torus2D{W: 5, H: 3},
		Torus2D{W: 8, H: 8},
		FatTree{Arity: 2, Levels: 1},
		FatTree{Arity: 2, Levels: 3},
		FatTree{Arity: 4, Levels: 2},
	}
}

// adjacency builds the undirected link set for route validation.
func adjacency(t Topology) map[[2]int]bool {
	adj := map[[2]int]bool{}
	for _, l := range t.Links() {
		adj[[2]int{l.A, l.B}] = true
		adj[[2]int{l.B, l.A}] = true
	}
	return adj
}

// TestRouteDeliversAllPairs is the routing property test: on every topology,
// every compute (src,dst) pair is routed over declared links only, ends at
// dst, visits no vertex twice, and is deterministic.
func TestRouteDeliversAllPairs(t *testing.T) {
	for _, top := range instances() {
		adj := adjacency(top)
		n := top.Nodes()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				path := Route(top, src, dst)
				if src == dst {
					if len(path) != 0 {
						t.Fatalf("%s: Route(%d,%d) = %v, want empty", top.Name(), src, dst, path)
					}
					continue
				}
				if len(path) == 0 || path[len(path)-1] != dst {
					t.Fatalf("%s: Route(%d,%d) = %v does not end at dst", top.Name(), src, dst, path)
				}
				cur := src
				seen := map[int]bool{src: true}
				for _, v := range path {
					if !adj[[2]int{cur, v}] {
						t.Fatalf("%s: Route(%d,%d) = %v uses undeclared link %d-%d",
							top.Name(), src, dst, path, cur, v)
					}
					if seen[v] {
						t.Fatalf("%s: Route(%d,%d) = %v visits %d twice", top.Name(), src, dst, path, v)
					}
					seen[v] = true
					cur = v
				}
				if again := Route(top, src, dst); !reflect.DeepEqual(again, path) {
					t.Fatalf("%s: Route(%d,%d) not deterministic: %v vs %v",
						top.Name(), src, dst, path, again)
				}
			}
		}
	}
}

// referenceRoute is the whole-path routing the topologies implemented before
// Next became the primitive: one hand-written path builder per family,
// retired from the build and kept here as the reference TestNextWalksReferenceRoutes
// holds the stepped routing to. It must not change with topo.go.
func referenceRoute(top Topology, src, dst int) []int {
	if src == dst {
		return nil
	}
	var path []int
	switch t := top.(type) {
	case Mesh2D:
		cx, cy := src%t.W, src/t.W
		dx, dy := dst%t.W, dst/t.W
		for cx != dx {
			cx += sign(dx - cx)
			path = append(path, cy*t.W+cx)
		}
		for cy != dy {
			cy += sign(dy - cy)
			path = append(path, cy*t.W+cx)
		}
	case Mesh3D:
		cx, cy, cz := src%t.X, (src/t.X)%t.Y, src/(t.X*t.Y)
		dx, dy, dz := dst%t.X, (dst/t.X)%t.Y, dst/(t.X*t.Y)
		for cx != dx {
			cx += sign(dx - cx)
			path = append(path, t.at(cx, cy, cz))
		}
		for cy != dy {
			cy += sign(dy - cy)
			path = append(path, t.at(cx, cy, cz))
		}
		for cz != dz {
			cz += sign(dz - cz)
			path = append(path, t.at(cx, cy, cz))
		}
	case Torus2D:
		cx, cy := src%t.W, src/t.W
		dx, dy := dst%t.W, dst/t.W
		step, hops := refRingStep(cx, dx, t.W)
		for i := 0; i < hops; i++ {
			cx = ((cx+step)%t.W + t.W) % t.W
			path = append(path, cy*t.W+cx)
		}
		step, hops = refRingStep(cy, dy, t.H)
		for i := 0; i < hops; i++ {
			cy = ((cy+step)%t.H + t.H) % t.H
			path = append(path, cy*t.W+cx)
		}
	case FatTree:
		// Climb both leaves level by level until their ancestors meet; the
		// climb sequences are the up-path and (reversed) down-path.
		var down []int
		si, di, level := src, dst, t.Levels
		for si != di {
			si, di, level = si/t.Arity, di/t.Arity, level-1
			path = append(path, t.switchID(level, si))
			down = append(down, t.switchID(level, di))
		}
		for i := len(down) - 2; i >= 0; i-- {
			path = append(path, down[i])
		}
		path = append(path, dst)
	}
	return path
}

// refRingStep returns the per-hop step (+1 or -1, modulo n) from c toward d
// along the shorter arc of an n-ring, and the number of hops; the direction
// is chosen once, at the source, with exact ties going the positive way.
func refRingStep(c, d, n int) (step, hops int) {
	fwd := ((d-c)%n + n) % n
	if fwd <= n-fwd {
		return 1, fwd
	}
	return -1, n - fwd
}

// TestNextWalksReferenceRoutes is the routing-equivalence test: on every
// family, walking Next from every compute vertex to every other reproduces
// the retired whole-path builder's route exactly. The fabric steps messages
// with Next and its differential reference takes its paths from the same
// stepping, so this — not the schedule differential — is what pins which
// links a pair's traffic crosses. The even tori put a destination exactly
// opposite its source, where the whole-path builder picked the positive
// direction once and the stepper must pick it again at every intermediate
// vertex; the fat trees take Next through switches, climbing and descending.
func TestNextWalksReferenceRoutes(t *testing.T) {
	for _, spec := range []string{
		"mesh:4x2", "mesh:5x3", "mesh:16x16", "mesh3d:3x2x4",
		"torus:2x2", "torus:4x4", "torus:5x6",
		"fattree:2x3", "fattree:4x2", "fattree:3x3",
	} {
		top, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		n := top.Nodes()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				want := referenceRoute(top, src, dst)
				if got := Route(top, src, dst); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: walking Next from %d to %d visits %v, reference route %v", spec, src, dst, got, want)
				}
			}
		}
	}
}

// TestMesh2DGoldenRoutes pins the default 2×4 mesh's XY routes to the exact
// hop sequences the legacy fabric produced (x correction first, then y), the
// routing half of the byte-identity guarantee for Tables 1–3.
func TestMesh2DGoldenRoutes(t *testing.T) {
	m := Mesh2D{W: 4, H: 2} // ids: row 0 = 0..3, row 1 = 4..7
	cases := []struct {
		src, dst int
		want     []int
	}{
		{0, 0, nil},
		{0, 1, []int{1}},
		{0, 3, []int{1, 2, 3}},
		{0, 7, []int{1, 2, 3, 7}},
		{3, 4, []int{2, 1, 0, 4}},
		{7, 0, []int{6, 5, 4, 0}},
		{5, 2, []int{6, 2}},
	}
	for _, c := range cases {
		if got := Route(m, c.src, c.dst); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Route(%d,%d) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

// TestFatTreeShape pins the indirect topology's vertex layout and uplink
// capacities.
func TestFatTreeShape(t *testing.T) {
	ft := FatTree{Arity: 2, Levels: 2} // 4 leaves, 3 switches
	if ft.Nodes() != 4 || ft.Routers() != 3 {
		t.Fatalf("nodes=%d routers=%d, want 4 and 3", ft.Nodes(), ft.Routers())
	}
	// Leaves 0..3; root = 4; level-1 switches = 5, 6.
	if got := Route(ft, 0, 3); !reflect.DeepEqual(got, []int{5, 4, 6, 3}) {
		t.Errorf("Route(0,3) = %v, want [5 4 6 3]", got)
	}
	if got := Route(ft, 0, 1); !reflect.DeepEqual(got, []int{5, 1}) {
		t.Errorf("Route(0,1) = %v, want [5 1]", got)
	}
	for _, l := range ft.Links() {
		wantCap := 1.0
		if l.A >= ft.Nodes() { // switch-to-switch uplink
			wantCap = 2.0
		}
		if l.Cap != wantCap {
			t.Errorf("link %d-%d has cap %v, want %v", l.A, l.B, l.Cap, wantCap)
		}
	}
}

// TestParse covers the spec grammar including the error paths the CLIs
// surface as usage errors.
func TestParse(t *testing.T) {
	good := map[string]string{
		"mesh:4x2":     "mesh:4x2",
		"4x2":          "mesh:4x2",
		"mesh3d:4x4x4": "mesh3d:4x4x4",
		"torus:16x16":  "torus:16x16",
		"fattree:4x3":  "fattree:4x3",
	}
	for spec, want := range good {
		top, err := Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		if top.Name() != want {
			t.Errorf("Parse(%q).Name() = %q, want %q", spec, top.Name(), want)
		}
	}
	bad := []string{"", "mesh:0x2", "mesh:4", "mesh:axb", "ring:8", "mesh:4x-2", "fattree:1x3", "mesh3d:4x4", "mesh:2048x2048"}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}
