package codec

import "testing"

// alloc_test.go — allocation-regression pins for the codec's reuse APIs. The
// steady-state encode/decode cycle of the checkpoint hot path allocates only
// what it hands on: a writer its owner Resets reuses its buffer, a reset
// reader decodes in place, the *Into/*Borrow variants avoid the copying the
// plain accessors do, and a Gatherer's scratch is reused, so a payload costs
// its framing and its list of parts.

// TestAllocsWriterResetRoundTrip pins a full scalar round trip — encode into
// a reused writer, read back via a stack Reader, Reset — at zero allocations
// once the writer's buffer is warm.
// reset empties the writer for reuse, retaining its buffer capacity; the
// next stream is counted toward the perf byte counters on its own. Slices
// previously returned by Bytes alias the retained buffer.
func (w *Writer) reset() {
	w.buf = w.buf[:0]
	w.counted = false
}

func TestAllocsWriterResetRoundTrip(t *testing.T) {
	// Warm the writer to the working-set size.
	w := NewWriter()
	for i := 0; i < 64; i++ {
		w.U64(uint64(i))
	}
	payload := []byte("payload bytes that ride along")
	allocs := testing.AllocsPerRun(200, func() {
		w.reset()
		w.U64(42)
		w.Int(-7)
		w.F64(3.5)
		w.Bool(true)
		w.Bytes8(payload)
		var r Reader
		r.Reset(w.Bytes())
		if r.U64() != 42 || r.Int() != -7 || r.F64() != 3.5 || !r.Bool() {
			t.Fatal("scalar round trip mismatch")
		}
		if b := r.Bytes8Borrow(); len(b) != len(payload) {
			t.Fatalf("payload round trip: got %d bytes, want %d", len(b), len(payload))
		}
		if r.Err() != nil {
			t.Fatalf("round trip error: %v", r.Err())
		}
	})
	if allocs != 0 {
		t.Fatalf("reused-writer round trip allocates %.1f objects per cycle, want 0", allocs)
	}
}

// TestAllocsF64sInto pins the vector decode-into path at zero allocations
// once the destination has capacity.
func TestAllocsF64sInto(t *testing.T) {
	w := NewWriter()
	vs := make([]float64, 32)
	for i := range vs {
		vs[i] = float64(i) * 1.5
	}
	w.F64s(vs)
	stream := w.Bytes()
	dst := make([]float64, 0, len(vs))
	allocs := testing.AllocsPerRun(200, func() {
		var r Reader
		r.Reset(stream)
		dst = r.F64sInto(dst[:0])
		if len(dst) != len(vs) || r.Err() != nil {
			t.Fatalf("decode-into: got %d values, err %v", len(dst), r.Err())
		}
	})
	if allocs != 0 {
		t.Fatalf("F64sInto allocates %.1f objects per run, want 0", allocs)
	}
}

// pagesOf cuts img into the page-size slices a Gatherer is handed.
func pagesOf(img []byte, pageSize int) [][]byte {
	var pages [][]byte
	for lo := 0; lo < len(img); lo += pageSize {
		pages = append(pages, img[lo:min(lo+pageSize, len(img))])
	}
	return pages
}

// TestAllocsGatherBase pins the incremental capture's base-image encode with
// a warm Gatherer at the two objects it returns, the framing and the list of
// parts — the literals are borrowed, the scratch reused.
func TestAllocsGatherBase(t *testing.T) {
	img := make([]byte, 8192)
	for i := 0; i < len(img); i += 97 {
		img[i] = byte(i)
	}
	pages := pagesOf(img, 4096)
	var g Gatherer
	g.Base(pages, 100)
	allocs := testing.AllocsPerRun(100, func() {
		if p := g.Base(pages, 100); len(p) == 0 {
			t.Fatal("empty base payload")
		}
	})
	if allocs != 2 {
		t.Fatalf("gathered base-image encode allocates %.1f objects per run, want 2 (framing, parts)", allocs)
	}
}

// TestAllocsGatherDeltaClean pins the no-dirty-pages delta encode — the common
// steady state when little changed between checkpoints — at the two objects
// it returns: the clean scan finds no page, and the encode writes the header.
func TestAllocsGatherDeltaClean(t *testing.T) {
	img := make([]byte, 8192)
	for i := 0; i < len(img); i += 113 {
		img[i] = byte(i >> 3)
	}
	pages := pagesOf(img, 4096)
	var g Gatherer
	g.Delta(len(img), pages, 0, 4096, nil)
	allocs := testing.AllocsPerRun(100, func() {
		if p := g.Delta(len(img), pages, 0, 4096, DirtyPages(img, img, 4096)); len(p) != 1 {
			t.Fatalf("a clean delta in %d parts, want its header alone", len(p))
		}
	})
	if allocs != 2 {
		t.Fatalf("gathered clean-delta encode allocates %.1f objects per run, want 2 (framing, parts)", allocs)
	}
}

// TestAllocsVectorEncode pins the vector encoders' single reservation: a
// 4,096-element vector into a fresh writer costs one buffer, not a buffer
// re-grown a dozen times under the element loop. The bound is two because
// alloc-gate runs under -race, where slices.Grow's make([]byte, n) operand is
// really allocated; the writer itself does not escape these closures.
func TestAllocsVectorEncode(t *testing.T) {
	const n = 4096
	f64s, ints, u64s := make([]float64, n), make([]int, n), make([]uint64, n)
	i8s := make([]int8, n)
	for name, encode := range map[string]func(){
		"F64s": func() { NewWriter().F64s(f64s) },
		"Ints": func() { NewWriter().Ints(ints) },
		"U64s": func() { NewWriter().U64s(u64s) },
		"I8s":  func() { NewWriter().I8s(i8s) },
	} {
		if allocs := testing.AllocsPerRun(50, encode); allocs > 2 {
			t.Errorf("%s of %d elements into a fresh writer allocates %.1f objects, want <= 2", name, n, allocs)
		}
	}
}

// TestAllocsVectorDecode pins each vector decoder at one allocation, the
// result: the bound is checked once and the payload read in place.
func TestAllocsVectorDecode(t *testing.T) {
	const n = 4096
	stream := func(encode func(*Writer)) []byte {
		w := NewWriter()
		encode(w)
		return w.Bytes()
	}
	for name, c := range map[string]struct {
		stream []byte
		decode func(*Reader) int
	}{
		"F64s":   {stream(func(w *Writer) { w.F64s(make([]float64, n)) }), func(r *Reader) int { return len(r.F64s()) }},
		"Ints":   {stream(func(w *Writer) { w.Ints(make([]int, n)) }), func(r *Reader) int { return len(r.Ints()) }},
		"I64s":   {stream(func(w *Writer) { w.I64s(make([]int64, n)) }), func(r *Reader) int { return len(r.I64s()) }},
		"I8s":    {stream(func(w *Writer) { w.I8s(make([]int8, n)) }), func(r *Reader) int { return len(r.I8s()) }},
		"Bytes8": {stream(func(w *Writer) { w.Bytes8(make([]byte, n)) }), func(r *Reader) int { return len(r.Bytes8()) }},
	} {
		var r Reader
		allocs := testing.AllocsPerRun(50, func() {
			r.Reset(c.stream)
			if got := c.decode(&r); got != n || r.Err() != nil {
				t.Fatalf("%s decoded %d values, err %v", name, got, r.Err())
			}
		})
		if allocs != 1 {
			t.Errorf("%s of %d elements allocates %.1f objects, want 1 (the result)", name, n, allocs)
		}
	}
}
