package mp

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/par"
)

// alloc_test.go — allocation-regression pins for the collective codecs and the
// library section. The reduction fan-in decodes one contribution per rank per
// collective; with the DecodeF64sInto the steady state must cost zero heap
// allocations.

// TestAllocsLibSection pins the library section of the checkpoint files
// (par.Node.Lib): every rank of a world holds the one buffer the world built,
// so a capture's library bytes cost no allocation, and the bytes are the two
// zero length-n u64 vectors the file format has always held, at n = 8 and
// n = 1024.
func TestAllocsLibSection(t *testing.T) {
	want := func(n int) []byte {
		b := make([]byte, 16+16*n)
		binary.LittleEndian.PutUint64(b, uint64(n))
		binary.LittleEndian.PutUint64(b[8+8*n:], uint64(n))
		return b
	}
	m := par.NewMachine(par.DefaultConfig())
	if m.NumNodes() != 8 {
		t.Fatalf("default machine has %d nodes, want 8", m.NumNodes())
	}
	w := NewWorld(m)
	for rank := range m.Nodes {
		w.Launch(rank, &testProg{run: func(*Env) {}})
	}
	for rank, n := range m.Nodes {
		if !bytes.Equal(n.Lib, want(8)) || &n.Lib[0] != &m.Nodes[0].Lib[0] {
			t.Fatalf("rank %d: library section % x, want the world's shared % x", rank, n.Lib, want(8))
		}
	}
	var lib []byte
	allocs := testing.AllocsPerRun(100, func() { lib = m.Nodes[3].Lib })
	if allocs != 0 || len(lib) != len(want(8)) {
		t.Fatalf("one capture's library section costs %.1f allocations, want 0", allocs)
	}
	if got := libSection(1024); !bytes.Equal(got, want(1024)) {
		t.Fatalf("1024-rank library section is %d bytes, not two zero vectors of 1024", len(got))
	}
}

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
