package bench

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/par"
)

// maxMeshNodes bounds -topo against absurd allocations (a 1024-node 32x32
// mesh is the largest shape the scaling experiment uses; this leaves two
// orders of magnitude of headroom).
const maxMeshNodes = 1 << 20

// ConfigureFabric applies the machine-shape command-line flags shared by the
// commands to cfg: -topo (a "WxH" mesh; empty keeps the configured 4x2) and
// -servers (stable-storage server count, ranks striped over them). Every
// error names the offending value, so a command can surface it as a usage
// error.
func ConfigureFabric(cfg *par.Config, mesh string, servers int) error {
	if mesh != "" {
		ws, hs, ok := strings.Cut(mesh, "x")
		w, werr := strconv.Atoi(ws)
		h, herr := strconv.Atoi(hs)
		if !ok || werr != nil || herr != nil || w < 1 || h < 1 {
			return fmt.Errorf("-topo %q: want WxH, a mesh of positive width and height (e.g. 8x8)", mesh)
		}
		if w > maxMeshNodes/h {
			return fmt.Errorf("-topo %q: more than %d nodes", mesh, maxMeshNodes)
		}
		cfg.Fabric.MeshW, cfg.Fabric.MeshH = w, h
	}
	if servers < 1 {
		return fmt.Errorf("-servers %d: want at least 1 stable-storage server", servers)
	}
	if n := cfg.Fabric.Nodes(); servers > n {
		return fmt.Errorf("-servers %d: the %d-node machine has only %d distinct attach nodes", servers, n, n)
	}
	cfg.StorageServers = servers
	return nil
}
