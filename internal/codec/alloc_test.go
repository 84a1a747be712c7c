package codec

import "testing"

// alloc_test.go — allocation-regression pins for the codec's reuse APIs. The
// steady-state encode/decode cycle of the checkpoint hot path must not
// allocate: a pooled writer's buffer is reused across streams, a reset reader
// decodes in place, and the *Into/*Borrow variants avoid the copying the
// plain accessors do. The pins are exact zeros, which is why the writer free
// list is a mutex-guarded stack rather than a sync.Pool — GC-driven emptying
// would make them flaky.

// TestAllocsPooledWriterRoundTrip pins a full scalar round trip — GetWriter,
// encode, read back via a stack Reader, Free — at zero allocations once the
// pooled buffer is warm.
func TestAllocsPooledWriterRoundTrip(t *testing.T) {
	// Warm one pooled writer to the working-set size.
	w := GetWriter()
	for i := 0; i < 64; i++ {
		w.U64(uint64(i))
	}
	w.Free()
	payload := []byte("payload bytes that ride along")
	allocs := testing.AllocsPerRun(200, func() {
		w := GetWriter()
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
		w.Free()
	})
	if allocs != 0 {
		t.Fatalf("pooled round trip allocates %.1f objects per cycle, want 0", allocs)
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

// TestAllocsBaseImageEncodeTo pins the incremental capture's base-image
// encode into a pooled writer at zero allocations — the steady-state cost of
// a checkpoint payload is the writer's (reused) buffer and nothing else.
func TestAllocsBaseImageEncodeTo(t *testing.T) {
	img := make([]byte, 8192)
	for i := 0; i < len(img); i += 97 {
		img[i] = byte(i)
	}
	// Warm a pooled buffer to the encoded size.
	w := GetWriter()
	EncodeBaseImageTo(w, img, 0)
	w.Free()
	allocs := testing.AllocsPerRun(100, func() {
		w := GetWriter()
		if p := EncodeBaseImageTo(w, img, 0); len(p) == 0 {
			t.Fatal("empty base payload")
		}
		w.Free()
	})
	if allocs != 0 {
		t.Fatalf("pooled base-image encode allocates %.1f objects per run, want 0", allocs)
	}
}

// TestAllocsDeltaEncodeToClean pins the no-dirty-pages delta encode — the
// common steady-state when little state changed between checkpoints — at
// zero allocations with a pooled writer: the clean scan finds no page, and
// the encode writes the header.
func TestAllocsDeltaEncodeToClean(t *testing.T) {
	img := make([]byte, 8192)
	for i := 0; i < len(img); i += 113 {
		img[i] = byte(i >> 3)
	}
	w := GetWriter()
	EncodeDeltaTo(w, len(img), img, 0, 4096, nil)
	w.Free()
	allocs := testing.AllocsPerRun(100, func() {
		w := GetWriter()
		if p := EncodeDeltaTo(w, len(img), img, 0, 4096, DirtyPages(img, img, 4096)); len(p) == 0 {
			t.Fatal("empty delta payload")
		}
		w.Free()
	})
	if allocs != 0 {
		t.Fatalf("pooled clean-delta encode allocates %.1f objects per run, want 0", allocs)
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
