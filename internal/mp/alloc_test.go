package mp

import "testing"

// alloc_test.go — allocation-regression pins for the collective codecs. The
// reduction fan-in decodes one contribution per rank per collective; with the
// DecodeF64sInto the steady state must cost zero heap allocations.

// TestAllocsDecodeF64sInto pins the fan-in decode at zero allocations once
// the destination has capacity — the path ReduceF64's root takes for every
// contribution.
func TestAllocsDecodeF64sInto(t *testing.T) {
	vs := make([]float64, 64)
	for i := range vs {
		vs[i] = float64(i) * 0.25
	}
	stream := EncodeF64s(vs)
	dst := make([]float64, 0, len(vs))
	allocs := testing.AllocsPerRun(200, func() {
		dst = DecodeF64sInto(dst[:0], stream)
		if len(dst) != len(vs) {
			t.Fatalf("decode-into: got %d values, want %d", len(dst), len(vs))
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeF64sInto allocates %.1f objects per run, want 0", allocs)
	}
}

// TestDecodeF64sIntoMatchesDecodeF64s cross-checks the reuse variant against
// the allocating one.
func TestDecodeF64sIntoMatchesDecodeF64s(t *testing.T) {
	vs := []float64{0, -1.5, 3.25, 1e300, -1e-300}
	stream := EncodeF64s(vs)
	a := DecodeF64s(stream)
	b := DecodeF64sInto(nil, stream)
	if len(a) != len(b) {
		t.Fatalf("length mismatch: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("value %d mismatch: %v vs %v", i, a[i], b[i])
		}
	}
}
