package bench

import (
	"strings"
	"testing"

	"repro/internal/ckpt"
)

// FuzzVariantParse throws arbitrary strings at the scheme-name resolver. It
// must never panic; any name it does accept must be one of the 13 opened
// schemes — a scheme is a point on axes, but names do not compose: an
// axis-shaped string nobody opened is rejected — and must round-trip,
// resolving the variant's canonical String() form, and every case/underscore
// mangling of it, back to the same variant.
func FuzzVariantParse(f *testing.F) {
	opened := map[string]bool{}
	for _, name := range ckpt.VariantNames() {
		opened[name] = true
		f.Add(name)
		f.Add(strings.ToLower(name))
		f.Add(strings.TrimPrefix(name, "Coord_"))
	}
	f.Add("nbms")
	f.Add("Coord_")
	f.Add("")
	f.Add("___")
	f.Add("indep_log_extra")
	f.Add("CIC_M\x00")
	f.Add("Coord_NBMS_INC")
	f.Add("Indep_M_INC")
	f.Add("CIC_FT")
	if len(opened) != 13 {
		f.Fatalf("%d opened schemes, want 13: %v", len(opened), ckpt.VariantNames())
	}

	f.Fuzz(func(t *testing.T, name string) {
		v, err := SchemeByName(name)
		if err != nil {
			return // rejection is fine; not panicking is the property
		}
		canon := v.String()
		if !opened[canon] {
			t.Fatalf("%q resolved to %v, not one of the 13 opened schemes %v", name, v, ckpt.VariantNames())
		}
		// The canonical name must parse exactly in ckpt and leniently here.
		if got, ok := ckpt.ParseVariant(canon); !ok || got != v {
			t.Fatalf("ParseVariant(%q) = %v, %v; want %v", canon, got, ok, v)
		}
		for _, mangled := range []string{
			strings.ToLower(canon),
			strings.ToUpper(canon),
			strings.ReplaceAll(canon, "_", ""),
			strings.TrimPrefix(canon, "Coord_"),
		} {
			if got, err := SchemeByName(mangled); err != nil || got != v {
				t.Fatalf("SchemeByName(%q) = %v, %v; want %v (from input %q)", mangled, got, err, v, name)
			}
		}
	})
}
