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
	pages := pagesOf(img, 4096)
	var g Gatherer
	var flat Writer
	b.ReportAllocs()
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat.reset()
		for _, part := range g.Base(pages, 0) {
			flat.buf = append(flat.buf, part...)
		}
		if _, err := decodeBaseImage(nil, flat.buf); err != nil {
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
	pages := pagesOf(cur, pageSize)
	var g Gatherer
	var flat Writer
	b.ReportAllocs()
	b.SetBytes(int64(len(cur)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat.reset()
		for _, part := range g.Delta(len(prev), pages, 0, pageSize, DirtyPages(prev, cur, pageSize)) {
			flat.buf = append(flat.buf, part...)
		}
		if _, err := ApplyDelta(prev, flat.buf); err != nil {
			b.Fatalf("apply: %v", err)
		}
	}
}

// BenchmarkDeltaEncodeClean is the steady-state floor: nothing changed, the
// scan finds no dirty page and the encoder only emits the header. This is the
// path TestAllocsGatherDeltaClean pins at its two returned objects.
func BenchmarkDeltaEncodeClean(b *testing.B) {
	img := benchImage(64<<10, 129)
	pages := pagesOf(img, 4096)
	var g Gatherer
	b.ReportAllocs()
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Delta(len(img), pages, 0, 4096, DirtyPages(img, img, 4096))
	}
}

// BenchmarkScalarStream measures the fixed-width scalar hot loop shared by
// every protocol codec (dependency vectors, sequence counters).
func BenchmarkScalarStream(b *testing.B) {
	w := NewWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
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

// BenchmarkF64s measures a 64 KiB float vector encoded into and decoded out
// of a reused buffer, slice at a time against the element-wise references in
// vector_test.go.
func BenchmarkF64s(b *testing.B) {
	vs := make([]float64, 8192)
	for i := range vs {
		vs[i] = float64(i) * 0.5
	}
	w := NewWriter()
	w.F64s(vs)
	stream := append([]byte(nil), w.Bytes()...)
	dst := make([]float64, len(vs))
	for _, c := range []struct {
		name   string
		encode func(*Writer)
		decode func(*Reader) []float64
	}{
		{"vector", func(w *Writer) { w.F64s(vs) }, func(r *Reader) []float64 { return r.F64sInto(dst) }},
		{"elementwise", func(w *Writer) { w.f64sRef(vs) }, func(r *Reader) []float64 { return r.f64sRef() }},
	} {
		b.Run("encode/"+c.name, func(b *testing.B) {
			b.SetBytes(int64(8 * len(vs)))
			for i := 0; i < b.N; i++ {
				w.reset()
				c.encode(w)
			}
		})
		b.Run("decode/"+c.name, func(b *testing.B) {
			b.SetBytes(int64(8 * len(vs)))
			for i := 0; i < b.N; i++ {
				var r Reader
				r.Reset(stream)
				if got := c.decode(&r); len(got) != len(vs) {
					b.Fatalf("decoded %d values", len(got))
				}
			}
		})
	}
}
