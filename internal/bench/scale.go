package bench

import (
	"context"
	"fmt"
	"io"

	"repro/internal/apps"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ScaleCell identifies one cell of the E14 grid: a mesh size and a number of
// stable-storage servers.
type ScaleCell struct {
	MeshW, MeshH int
	Servers      int
}

// Nodes returns the cell's compute-node count.
func (c ScaleCell) Nodes() int { return c.MeshW * c.MeshH }

// ScaleSchemes is the scheme axis of E14: one representative per protocol
// family — the families contend for storage in qualitatively different ways
// (synchronized bursts vs staggered autonomous writes) — plus each family's
// incremental variant, whose delta encoding shrinks exactly the traffic the
// experiment stresses (checkpoint bytes through the host link and disk).
var ScaleSchemes = []ckpt.Variant{
	ckpt.CoordNB, ckpt.CoordNBInc,
	ckpt.Indep, ckpt.IndepInc,
	ckpt.CIC, ckpt.CICInc,
}

// ScaleGrid returns the E14 cell grid: meshes from the paper's 8 nodes up to
// 1024, crossed with storage-server counts, minus combinations with more
// servers than compute nodes (a server needs a distinct attach node).
func ScaleGrid(quick bool) []ScaleCell {
	meshes := pick(quick,
		[][2]int{{4, 2}, {8, 8}},
		[][2]int{{4, 2}, {8, 8}, {16, 16}, {32, 32}})
	servers := pick(quick, []int{1, 4}, []int{1, 4, 16})
	var grid []ScaleCell
	for _, m := range meshes {
		for _, s := range servers {
			if s > m[0]*m[1] {
				continue
			}
			grid = append(grid, ScaleCell{MeshW: m[0], MeshH: m[1], Servers: s})
		}
	}
	return grid
}

// E14 holds per-node application state and process image fixed and small
// while the machine grows, so the storage path — not the simulation runtime —
// is what the experiment stresses. The durable file is not fixed, though:
// every independent/CIC record embeds the message library's two length-n
// sequence vectors, so the 5,152 B of accounted state per checkpoint is a
// 5,344 B file at 8 nodes and a 21,599 B one at 1024 — ≈22 MB per round, not
// 5, aimed at what is, with one server, a single 1.2 MB/s disk behind a
// single 1 MB/s host link.
const (
	scaleStateBytes = 1024
	scaleImageBytes = 4096
	scaleIters      = 40
	scaleOps        = 1e6
)

func scaleWorkload(nodes int) apps.Workload {
	return RingWorkloadN(nodes, scaleStateBytes, scaleIters, scaleOps)
}

// scaleCoordMaxNodes caps the coordinated family's cells. Its marker flood is
// O(n²) control messages per round — every rank markers every channel, the
// protocol's real cost. A message costs events rather than a process and
// leaves no per-pair state behind, but one event per hop is still the model:
// a single 1024-node Coord_NB cell (one server) is 2,153,665 messages and
// 83.8 M events, at most 16,910 of them pending at once, and measures ≈21 s
// of host time on 2 cores (≈35 s before same-time timers shared one heap
// entry per run; ≈99 s before routing went from a per-pair table to stepping
// and same-instant events left the heap). The full grid has three such cells
// per coordinated scheme, six in all — two minutes against the ≈6 s
// all of E14 takes today, and two orders of magnitude more than the
// autonomous families' O(n) traffic — so the cap stands. The family
// comparison lives at and below this size; past it only the autonomous
// families run, and the report says so.
const scaleCoordMaxNodes = 256

// scaleConfig specializes cfg for one grid cell. The explicit nil Topo makes
// the mesh dimensions authoritative even when the caller's cfg carries a
// parsed -topo override: the grid is defined over meshes.
func scaleConfig(cfg par.Config, c ScaleCell) par.Config {
	cc := cfg
	cc.Fabric.Topo = nil
	cc.Fabric.MeshW, cc.Fabric.MeshH = c.MeshW, c.MeshH
	cc.StorageServers = c.Servers
	cc.CkptImageBytes = scaleImageBytes
	return cc
}

// ScaleExperimentGrid (E14) grows the machine from the paper's 8-node mesh to
// 1024 nodes while sharding stable storage over 1, 4 and 16 servers, and
// measures where the checkpoint traffic bottleneck sits: the busiest single
// storage server's disk and host link, as a fraction of the run. With one
// server the coordinated families' synchronized checkpoint bursts saturate
// the single host link as the machine grows; striping ranks over servers at
// distinct attach points divides both the disk and the link contention by
// the server count.
//
// The cell grid and scheme axis are explicit — the catalogue entry passes
// ScaleGrid and ScaleSchemes, the determinism test single cells. The report
// is byte-deterministic under any runner parallelism: cells land in
// index-ordered slots and the table is rendered only after every cell
// finished.
func ScaleExperimentGrid(ctx context.Context, w io.Writer, cfg par.Config, grid []ScaleCell, schemes []ckpt.Variant, r *Runner) error {
	// Fault-free baselines, one per distinct mesh: no checkpoint traffic
	// flows, so the server count cannot affect them.
	type mesh struct{ w, h int }
	var meshes []mesh
	baseIdx := make(map[mesh]int)
	for _, c := range grid {
		m := mesh{c.MeshW, c.MeshH}
		if _, seen := baseIdx[m]; !seen {
			baseIdx[m] = len(meshes)
			meshes = append(meshes, m)
		}
	}
	baseCells := make([]Cell, len(meshes))
	for i, m := range meshes {
		baseCells[i] = Cell{App: fmt.Sprintf("SCALE-%dx%d", m.w, m.h), Scheme: "normal"}
	}
	bases, err := Cells(ctx, r, baseCells, func(_ context.Context, i int, c Cell) (sim.Duration, error) {
		m := meshes[i]
		cc := scaleConfig(cfg, ScaleCell{MeshW: m.w, MeshH: m.h, Servers: 1})
		res, err := core.Run(scaleWorkload(m.w*m.h), core.Config{Machine: cc})
		if err != nil {
			return 0, err
		}
		r.Prog.logf("%-18s baseline %.2fs", c.Name(), res.Exec.Seconds())
		return res.Exec, nil
	})
	if err != nil {
		return err
	}
	baseOf := func(c ScaleCell) sim.Duration { return bases[baseIdx[mesh{c.MeshW, c.MeshH}]] }

	type srow struct {
		cell   ScaleCell
		scheme ckpt.Variant
	}
	var rows []srow
	var cells []Cell
	coordCapped := false
	for _, c := range grid {
		for _, v := range schemes {
			if v.Coordinated() && c.Nodes() > scaleCoordMaxNodes {
				coordCapped = true
				continue
			}
			rows = append(rows, srow{cell: c, scheme: v})
			cells = append(cells, Cell{App: fmt.Sprintf("SCALE-%dn-%ds", c.Nodes(), c.Servers), Scheme: v.String()})
		}
	}
	results, err := Cells(ctx, r, cells, func(_ context.Context, i int, c Cell) (core.Result, error) {
		cell := rows[i].cell
		interval := baseOf(cell) / 3
		if interval < 1 {
			interval = 1
		}
		res, err := core.Run(scaleWorkload(cell.Nodes()), core.Config{
			Machine:        scaleConfig(cfg, cell),
			Scheme:         rows[i].scheme,
			Interval:       interval,
			MaxCheckpoints: 2,
		})
		if err != nil {
			return res, err
		}
		r.Prog.logf("%-24s exec %.2fs, busiest link %4.1f%%, busiest disk %4.1f%%", c.Name(),
			res.Exec.Seconds(), busyPct(res.MaxHostLinkBusy, res.Exec), busyPct(res.MaxDiskBusy, res.Exec))
		return res, nil
	})
	if err != nil {
		return err
	}

	t := trace.NewTable("E14: checkpoint overhead and storage contention vs machine size and server count",
		"Nodes", "Servers", "Scheme", "Ckpts", "Exec", "Overhead %", "Hostlink %", "Disk %").
		Align(0, 1, 3, 4, 5, 6, 7)
	for i, row := range rows {
		base, res := baseOf(row.cell), results[i]
		t.Rowf(row.cell.Nodes(), row.cell.Servers, row.scheme.String(),
			res.Ckpt.Checkpoints,
			fmt.Sprintf("%.2fs", res.Exec.Seconds()),
			fmt.Sprintf("%.1f", float64(res.Exec-base)/float64(base)*100),
			fmt.Sprintf("%.1f", busyPct(res.MaxHostLinkBusy, res.Exec)),
			fmt.Sprintf("%.1f", busyPct(res.MaxDiskBusy, res.Exec)))
	}
	t.Write(w)
	if coordCapped {
		fmt.Fprintf(w, "\nCoordinated cells above %d nodes are omitted: the marker flood is O(n²)\n", scaleCoordMaxNodes)
		fmt.Fprintln(w, "control messages per round, so those cells are dominated by protocol")
		fmt.Fprintln(w, "traffic the autonomous families do not pay; the family comparison is")
		fmt.Fprintln(w, "complete at the sizes shown.")
	}
	fmt.Fprintln(w, "\nHostlink % and Disk % are the busiest single server's mesh→host link and")
	fmt.Fprintln(w, "disk service time as a fraction of the run — the checkpoint bottleneck the")
	fmt.Fprintln(w, "paper's single file server hits as the machine grows (above 100% the")
	fmt.Fprintln(w, "server was still draining writes when the last application finished).")
	fmt.Fprintln(w, "Striping ranks over")
	fmt.Fprintln(w, "servers at distinct attach points divides both, which is what keeps the")
	fmt.Fprintln(w, "overhead of the synchronized coordinated burst from growing with the")
	fmt.Fprintln(w, "machine; the autonomous families spread the same bytes over time instead.")
	return nil
}

func busyPct(busy, exec sim.Duration) float64 {
	if exec <= 0 {
		return 0
	}
	return float64(busy) / float64(exec) * 100
}
