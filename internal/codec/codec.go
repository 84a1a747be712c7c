// Package codec implements a compact, deterministic binary encoding used for
// application checkpoints. Unlike encoding/gob it has no per-stream type
// dictionary, so encoded sizes reflect the real in-memory footprint of the
// state, which matters for checkpoint-cost modelling, and identical states
// always produce identical bytes, which lets tests compare snapshots
// directly.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Writer accumulates an encoded byte stream.
type Writer struct {
	buf     []byte
	counted bool
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// NewWriterSize returns an empty writer with room for n bytes: a stream of
// known size is then built in the one buffer it ends up in. The reservation
// is cleared like any allocation, so it pays only where the stream would
// otherwise be re-grown (see vector).
func NewWriterSize(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// Reset empties the writer for reuse, retaining its buffer capacity. The
// next stream is counted toward the perf byte counters independently of the
// previous one. Slices previously returned by Bytes alias the retained
// buffer and are invalidated by further writes — resetting is only correct
// once the previous stream is dead (see GetWriter/Free).
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.counted = false
}

// Bytes returns the encoded stream. The first call counts the stream toward
// the armed perf byte counters; appending after reading Bytes leaves the
// extra bytes uncounted, which no caller does.
func (w *Writer) Bytes() []byte {
	if !w.counted {
		w.counted = true
		countEncoded(len(w.buf))
	}
	return w.buf
}

// Len returns the number of bytes encoded so far.
func (w *Writer) Len() int { return len(w.buf) }

// U64 appends a fixed-width unsigned integer.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends a fixed-width signed integer.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as 64 bits.
func (w *Writer) Int(v int) { w.U64(uint64(int64(v))) }

// F64 appends a float64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Bytes8 appends a length-prefixed byte slice.
func (w *Writer) Bytes8(b []byte) {
	w.Int(len(b))
	w.buf = append(w.buf, b...)
}

// Raw appends b as it is, with no length prefix: the body of a section whose
// prefix the caller wrote itself because more than b belongs to it.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// String appends a length-prefixed string.
func (w *Writer) String(s string) { w.Bytes8([]byte(s)) }

// vector starts a length-prefixed vector of n elements of size bytes each:
// it reserves room for prefix and payload in one growth — so the element loop
// that follows never re-grows the buffer — and appends the prefix. Bytes8 has
// no element loop to protect: its one append grows at most once as it is, and
// slices.Grow would clear a megabyte image's room only for it to be
// overwritten (measured: 1 MiB into a fresh writer ×0.6).
func (w *Writer) vector(n, size int) {
	w.buf = slices.Grow(w.buf, 8+n*size)
	w.Int(n)
}

// F64s appends a length-prefixed []float64.
func (w *Writer) F64s(vs []float64) {
	w.vector(len(vs), 8)
	for _, v := range vs {
		w.F64(v)
	}
}

// Ints appends a length-prefixed []int.
func (w *Writer) Ints(vs []int) {
	w.vector(len(vs), 8)
	for _, v := range vs {
		w.Int(v)
	}
}

// U64s appends a length-prefixed []uint64.
func (w *Writer) U64s(vs []uint64) {
	w.vector(len(vs), 8)
	for _, v := range vs {
		w.U64(v)
	}
}

// I8s appends a length-prefixed []int8 (used for spin grids).
func (w *Writer) I8s(vs []int8) {
	w.vector(len(vs), 1)
	for _, v := range vs {
		w.buf = append(w.buf, byte(v))
	}
}

// Reader decodes a stream produced by Writer. Errors are sticky: after the
// first decoding error all further reads return zero values, and Err reports
// the error.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over b. Creating a reader counts its input
// toward the armed perf byte counters.
func NewReader(b []byte) *Reader {
	countDecoded(len(b))
	return &Reader{buf: b}
}

// Reset points the reader at a new stream, clearing any sticky error, and
// counts the input toward the armed perf byte counters exactly as NewReader
// does. It lets a long-lived reader (a zero value or an embedded field)
// decode repeatedly without allocating.
func (r *Reader) Reset(b []byte) {
	countDecoded(len(b))
	r.buf = b
	r.off = 0
	r.err = nil
}

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("codec: truncated stream reading %s at offset %d", what, r.off)
	}
}

// U64 reads a fixed-width unsigned integer.
func (r *Reader) U64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// I64 reads a fixed-width signed integer.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int encoded as 64 bits.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a boolean.
func (r *Reader) Bool() bool {
	if r.err != nil || r.off >= len(r.buf) {
		r.fail("bool")
		return false
	}
	v := r.buf[r.off] != 0
	r.off++
	return v
}

// Bytes8 reads a length-prefixed byte slice.
func (r *Reader) Bytes8() []byte {
	n := r.Int()
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail("bytes")
		return nil
	}
	b := make([]byte, n)
	copy(b, r.buf[r.off:])
	r.off += n
	return b
}

// Bytes8Borrow reads a length-prefixed byte slice without copying: the
// result aliases the reader's input stream. It is the zero-copy variant for
// decoding out of immutable blobs (stable-storage files and read replies,
// which are never mutated once written); the caller must treat the result as
// read-only and must not use it to outlive a mutable input buffer.
func (r *Reader) Bytes8Borrow() []byte {
	n := r.Int()
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail("bytes")
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes8()) }

// F64s reads a length-prefixed []float64.
func (r *Reader) F64s() []float64 {
	n := r.Int()
	if r.err != nil || n < 0 || r.off+8*n > len(r.buf) {
		r.fail("[]float64")
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = r.F64()
	}
	return vs
}

// F64sInto reads a length-prefixed []float64 into dst's storage, growing it
// only when the capacity is short — the reuse variant for decode paths that
// drain a stream per iteration (collective fan-ins).
func (r *Reader) F64sInto(dst []float64) []float64 {
	n := r.Int()
	if r.err != nil || n < 0 || r.off+8*n > len(r.buf) {
		r.fail("[]float64")
		return nil
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = r.F64()
	}
	return dst
}

// Ints reads a length-prefixed []int.
func (r *Reader) Ints() []int {
	n := r.Int()
	if r.err != nil || n < 0 || r.off+8*n > len(r.buf) {
		r.fail("[]int")
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = r.Int()
	}
	return vs
}

// I8s reads a length-prefixed []int8.
func (r *Reader) I8s() []int8 {
	n := r.Int()
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail("[]int8")
		return nil
	}
	vs := make([]int8, n)
	for i := range vs {
		vs[i] = int8(r.buf[r.off+i])
	}
	r.off += n
	return vs
}
