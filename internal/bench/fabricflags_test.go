package bench

import (
	"strings"
	"testing"

	"repro/internal/par"
)

// TestConfigureFabricParse covers the -topo grammar, a bare WxH mesh, and
// the error paths the commands surface as usage errors: each names the value.
func TestConfigureFabricParse(t *testing.T) {
	for spec, want := range map[string][2]int{
		"":          {4, 2}, // keeps the configured machine
		"4x2":       {4, 2},
		"8x8":       {8, 8},
		"1x6":       {1, 6},
		"1024x1024": {1024, 1024}, // at the node bound
	} {
		cfg := par.DefaultConfig()
		if err := ConfigureFabric(&cfg, spec, 1); err != nil {
			t.Errorf("ConfigureFabric(%q): %v", spec, err)
			continue
		}
		if got := [2]int{cfg.Fabric.MeshW, cfg.Fabric.MeshH}; got != want {
			t.Errorf("ConfigureFabric(%q) built a %dx%d mesh, want %dx%d", spec, got[0], got[1], want[0], want[1])
		}
	}
	for _, spec := range []string{"x", "4", "4x", "x2", "0x2", "4x-2", "axb", "4x4x4", "mesh:4x2", "torus:8x8", "2048x1024", "2048x2048"} {
		cfg := par.DefaultConfig()
		err := ConfigureFabric(&cfg, spec, 1)
		if err == nil {
			t.Errorf("ConfigureFabric(%q) succeeded, want error", spec)
			continue
		}
		if !strings.Contains(err.Error(), `"`+spec+`"`) {
			t.Errorf("ConfigureFabric(%q) error %q does not name the value", spec, err)
		}
	}
}
