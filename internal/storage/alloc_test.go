package storage

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// TestAllocsAppendedFile pins what keeping the bytes it is handed is for: a
// PAGES checkpoint image streamed to the server in 64 KiB appends is stored
// without the host allocating anything of a segment's size — the file's extent
// list grows, and that is all (one byte per byte stored while each segment was
// cloned, five while a flat slice was re-grown by append at every segment).
func TestAllocsAppendedFile(t *testing.T) {
	const size, segment = 1_118_208, 64 << 10
	image := make([]byte, size)
	e := sim.New()
	defer e.Shutdown()
	s := New(e, testConfig())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for off := 0; off < size; off += segment {
		seg := image[off:min(off+segment, size)]
		s.Submit(Request{Op: OpAppend, Path: "ckpt", Data: seg[:len(seg)/2], More: [][]byte{seg[len(seg)/2:]}, Durable: true})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if s.Occupied() != size {
		t.Fatalf("stored %d bytes, want %d", s.Occupied(), size)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= segment {
		t.Fatalf("appending a %d-byte file in 64 KiB gathered segments allocated %d bytes: a segment is being copied", size, got)
	}
}
