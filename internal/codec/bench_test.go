package codec

import (
	"math/rand"
	"testing"
)

// bench_test.go — microbenchmarks of the checkpoint payload codecs,
// benchstat-friendly: run with
//
//	go test ./internal/codec -run '^$' -bench . -count 10 | benchstat -
//
// The image shape mirrors the table workloads' checkpoint states: a sparse
// working set over a zero-padded fixed-size image, so the zero-run RLE and
// the dirty-page diff both do representative work.

// benchImage builds a size-byte image with non-zero bytes on a sparse stride,
// the shape a padded process image has for real app states.
func benchImage(size, stride int) []byte {
	img := make([]byte, size)
	for i := 0; i < size; i += stride {
		img[i] = byte(i*7 + 1)
	}
	return img
}

func BenchmarkBaseImageRoundTrip(b *testing.B) {
	img := benchImage(64<<10, 129)
	w := GetWriter()
	defer w.Free()
	b.ReportAllocs()
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		payload := EncodeBaseImageTo(w, img, 0)
		if _, err := DecodeBaseImage(payload); err != nil {
			b.Fatalf("decode: %v", err)
		}
	}
}

func BenchmarkDeltaRoundTrip(b *testing.B) {
	const pageSize = 4096
	prev := benchImage(64<<10, 129)
	cur := append([]byte(nil), prev...)
	// Dirty a quarter of the pages, the regime where deltas clearly win.
	rng := rand.New(rand.NewSource(3))
	for p := 0; p < len(cur)/pageSize; p += 4 {
		cur[p*pageSize+rng.Intn(pageSize)] ^= 0x5a
	}
	w := GetWriter()
	defer w.Free()
	b.ReportAllocs()
	b.SetBytes(int64(len(cur)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		payload := EncodeDeltaTo(w, prev, 0, cur, 0, pageSize)
		if _, err := ApplyDelta(prev, payload); err != nil {
			b.Fatalf("apply: %v", err)
		}
	}
}

// BenchmarkDeltaEncodeClean is the steady-state floor: nothing changed, the
// encoder only diffs and emits the header. This is the path the alloc tests
// pin at zero allocations.
func BenchmarkDeltaEncodeClean(b *testing.B) {
	img := benchImage(64<<10, 129)
	w := GetWriter()
	defer w.Free()
	b.ReportAllocs()
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		EncodeDeltaTo(w, img, 0, img, 0, 4096)
	}
}

// BenchmarkScalarStream measures the fixed-width scalar hot loop shared by
// every protocol codec (dependency vectors, sequence counters).
func BenchmarkScalarStream(b *testing.B) {
	w := GetWriter()
	defer w.Free()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		for j := 0; j < 64; j++ {
			w.U64(uint64(j))
		}
		var r Reader
		r.Reset(w.Bytes())
		var sum uint64
		for j := 0; j < 64; j++ {
			sum += r.U64()
		}
		if r.Err() != nil {
			b.Fatalf("decode: %v", r.Err())
		}
	}
}
