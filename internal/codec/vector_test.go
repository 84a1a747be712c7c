package codec

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// vector_test.go — the element-wise vector codecs the slice-at-a-time ones
// replaced, kept as differential references: every encoder appended one
// element at a time through U64 (or append for bytes), and every decoder read
// one element at a time through the sticky-error scalar accessors.

func (w *Writer) f64sRef(vs []float64) {
	w.Int(len(vs))
	for _, v := range vs {
		w.F64(v)
	}
}

func (w *Writer) intsRef(vs []int) {
	w.Int(len(vs))
	for _, v := range vs {
		w.Int(v)
	}
}

func (w *Writer) i64sRef(vs []int64) {
	w.Int(len(vs))
	for _, v := range vs {
		w.I64(v)
	}
}

func (w *Writer) u64sRef(vs []uint64) {
	w.Int(len(vs))
	for _, v := range vs {
		w.U64(v)
	}
}

func (w *Writer) i8sRef(vs []int8) {
	w.Int(len(vs))
	for _, v := range vs {
		w.buf = append(w.buf, byte(v))
	}
}

// refLen reads a vector's length prefix as the retired decoders did, with
// the bound written as a count so a hostile prefix fails instead of
// overflowing.
func (r *Reader) refLen(size int, what string) (int, bool) {
	n := r.Int()
	if r.err != nil || n < 0 || n > r.Remaining()/size {
		r.fail(what)
		return 0, false
	}
	return n, true
}

func (r *Reader) f64sRef() []float64 {
	n, ok := r.refLen(8, "[]float64")
	if !ok {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.F64()
	}
	return vs
}

func (r *Reader) intsRef() []int {
	n, ok := r.refLen(8, "[]int")
	if !ok {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = r.Int()
	}
	return vs
}

func (r *Reader) i64sRef() []int64 {
	n, ok := r.refLen(8, "[]int64")
	if !ok {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = r.I64()
	}
	return vs
}

func (r *Reader) i8sRef() []int8 {
	n, ok := r.refLen(1, "[]int8")
	if !ok {
		return nil
	}
	vs := make([]int8, n)
	for i := range vs {
		vs[i] = int8(r.buf[r.off+i])
	}
	r.off += n
	return vs
}

// TestVectorCodecsMatchReference: each vector encoder writes the bytes its
// element-wise reference writes, appended after an odd-length prefix so the
// payload window starts unaligned, and each decoder reads back what the
// reference reads — values, offset and error — from the whole stream and
// from truncations of it down to nothing, cut inside every vector.
func TestVectorCodecsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	f64 := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		f64s, ints, i64s := make([]float64, n), make([]int, n), make([]int64, n)
		u64s, i8s := make([]uint64, n), make([]int8, n)
		for i := 0; i < n; i++ {
			u := rng.Uint64()
			f64s[i], ints[i], i64s[i] = math.Float64frombits(u), int(int64(u)), int64(u)
			u64s[i], i8s[i] = u, int8(u)
		}
		got, want := NewWriter(), NewWriter()
		got.Bool(true)
		want.Bool(true)
		got.F64s(f64s)
		want.f64sRef(f64s)
		got.Ints(ints)
		want.intsRef(ints)
		got.I64s(i64s)
		want.i64sRef(i64s)
		got.U64s(u64s)
		want.u64sRef(u64s)
		got.I8s(i8s)
		want.i8sRef(i8s)
		stream := got.Bytes()
		if !bytes.Equal(stream, want.Bytes()) {
			t.Fatalf("n=%d: vector encoders differ from the element-wise reference", n)
		}
		for cut := len(stream); cut >= 0; cut -= 1 + cut/16 {
			g, w := NewReader(stream[:cut]), NewReader(stream[:cut])
			g.Bool()
			w.Bool()
			same := slices.EqualFunc(g.F64s(), w.f64sRef(), f64)
			same = same && slices.Equal(g.Ints(), w.intsRef())
			same = same && slices.Equal(g.I64s(), w.i64sRef())
			// U64s shares the wire format of I64s, whose decoder reads it.
			same = same && slices.Equal(g.I64s(), w.i64sRef())
			same = same && slices.Equal(g.I8s(), w.i8sRef())
			gi, wi := NewReader(stream[:cut]), NewReader(stream[:cut])
			gi.Bool()
			wi.Bool()
			same = same && slices.EqualFunc(gi.F64sInto(make([]float64, 1, 2)), wi.f64sRef(), f64)
			if !same || g.off != w.off || (g.Err() == nil) != (w.Err() == nil) {
				t.Fatalf("n=%d cut=%d: decoders differ from the reference (off %d vs %d, err %v vs %v)",
					n, cut, g.off, w.off, g.Err(), w.Err())
			}
			if g.Err() != nil && g.Err().Error() != w.Err().Error() {
				t.Fatalf("n=%d cut=%d: error %q, reference %q", n, cut, g.Err(), w.Err())
			}
		}
	}
}
