// Package topo describes multicomputer interconnect topologies as undirected
// graphs with deterministic source routing. The fabric layer consumes a
// Topology to lay out its links and route envelopes; everything above it
// (nodes, schemes, experiments) stays topology-agnostic.
//
// Vertex numbering: 0..Nodes()-1 are compute vertices (the ranks applications
// run on); Nodes()..Nodes()+Routers()-1 are routing-only vertices (the
// switches of indirect topologies such as fat trees). Compute vertices also
// forward traffic on direct topologies (meshes, tori), exactly like the
// transputer software routers of the modelled machine.
//
// Routing is hop by hop: Next(cur, dst) names the vertex a message at cur
// forwards to on its way to dst, and is a pure function of that pair — no
// per-message or per-source state. Every message for dst that reaches cur
// therefore leaves on the same link, so all messages of one (src, dst) pair
// follow one path; that is what gives the fabric its per-pair FIFO delivery
// guarantee and keeps simulations byte-identical across runs. Route walks
// Next to produce the whole path for the callers that want one.
package topo

import (
	"fmt"
	"strconv"
	"strings"
)

// Link is one undirected link of a topology. Cap scales the fabric's base
// link bandwidth for this link (0 means 1.0): fat trees use it to give
// upper-level links the aggregate capacity of the subtree below them.
type Link struct {
	A, B int
	Cap  float64
}

// Topology is an interconnect shape: a set of vertices, the links joining
// them, and a deterministic routing step toward any compute vertex.
type Topology interface {
	// Name returns the canonical spec string, e.g. "mesh:4x2", parseable by
	// Parse.
	Name() string
	// Nodes returns the number of compute vertices (numbered 0..Nodes()-1).
	Nodes() int
	// Routers returns the number of routing-only vertices (numbered
	// Nodes()..Nodes()+Routers()-1); zero for direct topologies.
	Routers() int
	// Links enumerates every undirected link once, in a deterministic order.
	Links() []Link
	// Next returns the vertex a message at cur forwards to on its way to the
	// compute vertex dst, cur != dst. cur is any vertex such a message can
	// reach — a compute vertex or, on indirect topologies, a switch — and
	// cur→Next(cur, dst) is a declared link. Stepping from a compute vertex
	// reaches dst without visiting a vertex twice.
	Next(cur, dst int) int
}

// Route returns the vertices t's routing visits after src, ending with dst;
// nil when src == dst.
func Route(t Topology, src, dst int) []int {
	var path []int
	for cur := src; cur != dst; {
		cur = t.Next(cur, dst)
		path = append(path, cur)
	}
	return path
}

// maxVertices bounds Parse against absurd allocations (a 1024-node 32x32
// mesh is the largest shape the scaling experiment uses; this leaves two
// orders of magnitude of headroom).
const maxVertices = 1 << 20

// Mesh2D is a W×H 2-D mesh with XY (dimension-ordered) routing: correct x
// first, then y. Vertex id = y*W + x (row-major), matching the legacy fabric
// numbering, so Mesh2D{W: 4, H: 2} reproduces the Parsytec Xplorer's 2×4
// mesh hop for hop.
type Mesh2D struct {
	W, H int
}

func (t Mesh2D) Name() string { return fmt.Sprintf("mesh:%dx%d", t.W, t.H) }
func (t Mesh2D) Nodes() int   { return t.W * t.H }
func (t Mesh2D) Routers() int { return 0 }

func (t Mesh2D) Links() []Link {
	var out []Link
	for y := 0; y < t.H; y++ {
		for x := 0; x < t.W; x++ {
			id := y*t.W + x
			if x+1 < t.W {
				out = append(out, Link{A: id, B: id + 1})
			}
			if y+1 < t.H {
				out = append(out, Link{A: id, B: id + t.W})
			}
		}
	}
	return out
}

func (t Mesh2D) Next(cur, dst int) int {
	if cx, dx := cur%t.W, dst%t.W; cx != dx {
		return cur + sign(dx-cx)
	}
	return cur + sign(dst-cur)*t.W // same column: ids order by row
}

// Mesh3D is an X×Y×Z 3-D mesh with XYZ dimension-ordered routing. Vertex
// id = (z*Y + y)*X + x.
type Mesh3D struct {
	X, Y, Z int
}

func (t Mesh3D) Name() string { return fmt.Sprintf("mesh3d:%dx%dx%d", t.X, t.Y, t.Z) }
func (t Mesh3D) Nodes() int   { return t.X * t.Y * t.Z }
func (t Mesh3D) Routers() int { return 0 }

func (t Mesh3D) at(x, y, z int) int { return (z*t.Y+y)*t.X + x }

func (t Mesh3D) Links() []Link {
	var out []Link
	for z := 0; z < t.Z; z++ {
		for y := 0; y < t.Y; y++ {
			for x := 0; x < t.X; x++ {
				id := t.at(x, y, z)
				if x+1 < t.X {
					out = append(out, Link{A: id, B: t.at(x+1, y, z)})
				}
				if y+1 < t.Y {
					out = append(out, Link{A: id, B: t.at(x, y+1, z)})
				}
				if z+1 < t.Z {
					out = append(out, Link{A: id, B: t.at(x, y, z+1)})
				}
			}
		}
	}
	return out
}

func (t Mesh3D) Next(cur, dst int) int {
	if cx, dx := cur%t.X, dst%t.X; cx != dx {
		return cur + sign(dx-cx)
	}
	if cy, dy := cur/t.X%t.Y, dst/t.X%t.Y; cy != dy {
		return cur + sign(dy-cy)*t.X
	}
	return cur + sign(dst-cur)*t.X*t.Y // same column and row: ids order by plane
}

// Torus2D is a W×H 2-D torus: a mesh with wraparound links in both
// dimensions. Routing is dimension-ordered (x then y), taking the shorter
// way around each ring; exact ties break toward the positive direction, so
// routes stay deterministic on even ring sizes.
type Torus2D struct {
	W, H int
}

func (t Torus2D) Name() string { return fmt.Sprintf("torus:%dx%d", t.W, t.H) }
func (t Torus2D) Nodes() int   { return t.W * t.H }
func (t Torus2D) Routers() int { return 0 }

func (t Torus2D) Links() []Link {
	var out []Link
	for y := 0; y < t.H; y++ {
		for x := 0; x < t.W; x++ {
			id := y*t.W + x
			// A 2-ring's wrap link coincides with its mesh link; emit each
			// undirected pair once.
			if x+1 < t.W {
				out = append(out, Link{A: id, B: id + 1})
			} else if t.W > 2 {
				out = append(out, Link{A: id, B: y * t.W})
			}
			if y+1 < t.H {
				out = append(out, Link{A: id, B: id + t.W})
			} else if t.H > 2 {
				out = append(out, Link{A: id, B: x})
			}
		}
	}
	return out
}

// ringNext returns the position after c on the shorter arc of an n-ring
// toward d, c != d. An exact tie (d opposite c on an even ring) goes the
// positive way, and every later position on that arc is then strictly closer
// the positive way too, so stepping never turns round.
func ringNext(c, d, n int) int {
	if fwd := (d - c + n) % n; fwd <= n-fwd {
		return (c + 1) % n
	}
	return (c - 1 + n) % n
}

func (t Torus2D) Next(cur, dst int) int {
	cx, cy := cur%t.W, cur/t.W
	if dx := dst % t.W; cx != dx {
		return cy*t.W + ringNext(cx, dx, t.W)
	}
	return ringNext(cy, dst/t.W, t.H)*t.W + cx
}

// FatTree is a complete A-ary tree of switches with compute vertices at the
// leaves: Levels levels of switches above A^Levels leaves. Routing climbs to
// the lowest common ancestor and descends. Each link's capacity multiplier
// equals the number of leaves below its lower endpoint, giving the full
// bisection bandwidth that distinguishes fat trees from plain trees.
//
// Switch numbering is level by level from the root: the root is vertex
// Nodes(), its children follow, and so on, so switch i of level l is vertex
// Nodes() + (A^l - 1)/(A - 1) + i.
type FatTree struct {
	Arity, Levels int
}

func (t FatTree) Name() string { return fmt.Sprintf("fattree:%dx%d", t.Arity, t.Levels) }

func (t FatTree) Nodes() int { return pow(t.Arity, t.Levels) }

func (t FatTree) Routers() int { return (pow(t.Arity, t.Levels) - 1) / (t.Arity - 1) }

// switchID returns the vertex id of switch idx at level (0 = root).
func (t FatTree) switchID(level, idx int) int {
	return t.Nodes() + (pow(t.Arity, level)-1)/(t.Arity-1) + idx
}

func (t FatTree) Links() []Link {
	var out []Link
	// Switch-to-parent links, level by level below the root. A switch at
	// level l has A^(Levels-l) leaves beneath it.
	for l := 1; l <= t.Levels-1; l++ {
		cap := float64(pow(t.Arity, t.Levels-l))
		for i := 0; i < pow(t.Arity, l); i++ {
			out = append(out, Link{A: t.switchID(l, i), B: t.switchID(l-1, i/t.Arity), Cap: cap})
		}
	}
	// Leaf-to-switch links (capacity 1, a single compute vertex below).
	for leaf := 0; leaf < t.Nodes(); leaf++ {
		out = append(out, Link{A: leaf, B: t.switchID(t.Levels-1, leaf/t.Arity), Cap: 1})
	}
	return out
}

func (t FatTree) Next(cur, dst int) int {
	leaves := t.Nodes()
	if cur < leaves {
		return t.switchID(t.Levels-1, cur/t.Arity)
	}
	// Locate cur among the switches: level l starts at offset first and has
	// width switches, each above span leaves.
	off, first, width := cur-leaves, 0, 1
	for off >= first+width {
		first, width = first+width, width*t.Arity
	}
	idx, span := off-first, leaves/width
	switch {
	case dst/span != idx: // dst is not below cur: climb
		return leaves + first - width/t.Arity + idx/t.Arity
	case span == t.Arity: // cur is a bottom switch: dst is its child
		return dst
	}
	return leaves + first + width + dst/(span/t.Arity)
}

func sign(d int) int {
	if d < 0 {
		return -1
	}
	return 1
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// Parse builds a topology from a spec string:
//
//	mesh:WxH       2-D mesh, XY routing            (e.g. mesh:8x8)
//	mesh3d:XxYxZ   3-D mesh, XYZ routing           (e.g. mesh3d:4x4x4)
//	torus:WxH      2-D torus, shortest-way rings   (e.g. torus:16x16)
//	fattree:AxL    A-ary fat tree, L switch levels (e.g. fattree:4x3)
//
// A bare "WxH" is accepted as shorthand for "mesh:WxH".
func Parse(spec string) (Topology, error) {
	kind, rest := "mesh", spec
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		kind, rest = spec[:i], spec[i+1:]
	}
	dims, err := parseDims(rest)
	if err != nil {
		return nil, fmt.Errorf("topology %q: %w (want mesh:WxH, mesh3d:XxYxZ, torus:WxH or fattree:AxL)", spec, err)
	}
	var t Topology
	switch {
	case kind == "mesh" && len(dims) == 2:
		t = Mesh2D{W: dims[0], H: dims[1]}
	case kind == "mesh3d" && len(dims) == 3:
		t = Mesh3D{X: dims[0], Y: dims[1], Z: dims[2]}
	case kind == "torus" && len(dims) == 2:
		t = Torus2D{W: dims[0], H: dims[1]}
	case kind == "fattree" && len(dims) == 2:
		if dims[0] < 2 {
			return nil, fmt.Errorf("topology %q: fat-tree arity must be >= 2", spec)
		}
		t = FatTree{Arity: dims[0], Levels: dims[1]}
	default:
		return nil, fmt.Errorf("unknown topology %q (want mesh:WxH, mesh3d:XxYxZ, torus:WxH or fattree:AxL)", spec)
	}
	if n := t.Nodes() + t.Routers(); n > maxVertices {
		return nil, fmt.Errorf("topology %q: %d vertices exceeds the %d limit", spec, n, maxVertices)
	}
	return t, nil
}

// parseDims splits "4x2" / "4x4x4" into positive integers.
func parseDims(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	if len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("malformed dimensions %q", s)
	}
	dims := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("dimension %q must be a positive integer", p)
		}
		dims[i] = v
	}
	return dims, nil
}

// Names lists the available topology families for -list style output.
func Names() []string {
	return []string{
		"mesh:WxH     - 2-D mesh, XY dimension-order routing (default mesh:4x2, the Parsytec Xplorer)",
		"mesh3d:XxYxZ - 3-D mesh, XYZ dimension-order routing",
		"torus:WxH    - 2-D torus, shortest-way dimension-order routing with wraparound links",
		"fattree:AxL  - A-ary fat tree with L switch levels, full-bisection uplink capacity",
	}
}
