package storage

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// TestAllocsAppendedFile pins what extent lists are for: a PAGES checkpoint
// image streamed to the server in 64 KiB appends is copied once, so the host
// allocates about one byte per byte stored — not the five a flat slice
// re-grown by append at every segment came to.
func TestAllocsAppendedFile(t *testing.T) {
	const size, segment = 1_118_208, 64 << 10
	image := make([]byte, size)
	e := sim.New()
	defer e.Shutdown()
	s := New(e, testConfig())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for off := 0; off < size; off += segment {
		s.Submit(Request{Op: OpAppend, Path: "ckpt", Data: image[off:min(off+segment, size)], Durable: true})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if s.Occupied() != size {
		t.Fatalf("stored %d bytes, want %d", s.Occupied(), size)
	}
	if perByte := float64(after.TotalAlloc-before.TotalAlloc) / size; perByte > 1.25 {
		t.Fatalf("appending a %d-byte file in 64 KiB segments allocated %.2f bytes per byte stored, want <= 1.25", size, perByte)
	}
}
