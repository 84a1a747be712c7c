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

// Buffer ownership.
//
// Encoded streams in this system fall into three ownership classes. Blobs
// handed to the fabric or to stable storage (checkpoint files, message bodies)
// must be freshly owned and are never written again: an envelope keeps its
// payload alive while in flight, the storage server keeps the very slices it
// is handed as the file's extents (and a timed-out storage call can leave a
// request behind that it serves later), and the correctness oracle retains
// message bodies for replay — none of these have a trackable death point, so their
// writers are plain NewWriter allocations (NewWriterSize for the two ends of a
// checkpoint record, whose size is known), and a Gatherer's framing is a fresh
// buffer of its exact size. An application's Snapshot is in this class by
// contract (par.Snapshotter), which is what lets a checkpoint file lend it to
// storage instead of copying it — whole, as pages, or as the literals of an
// incremental payload — or borrow its unchanged pages from earlier snapshots
// and earlier copies of changed pages, all never written again, and what lets
// a node's image holder (package ckpt) keep those pages as the image the next
// capture is compared with. A buffer with one owner that outlives its uses —
// a Replayer's image and page, a Gatherer's scratch, the scratch handed to
// storage's Peek — is simply reused by its owner, and what it lends out is
// valid until the owner's next use. The third class
// is shared and immutable: ckpt's zero page, the padding of every process
// image, which any number of files, requests and stored extents borrow at
// once because nobody, ever, writes it.

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

// String appends a length-prefixed string.
func (w *Writer) String(s string) { w.Bytes8([]byte(s)) }

// vector starts a length-prefixed vector of n elements of size bytes each and
// returns its payload window for the caller to fill: prefix and payload are
// reserved in one growth and the element loop stores at fixed offsets, with no
// per-element append. Bytes8 has no element loop to protect: its one append
// grows at most once as it is, and slices.Grow would clear a megabyte image's
// room only for it to be overwritten (measured: 1 MiB into a fresh writer
// ×0.6).
func (w *Writer) vector(n, size int) []byte {
	w.buf = slices.Grow(w.buf, 8+n*size)
	w.Int(n)
	off := len(w.buf)
	w.buf = w.buf[:off+n*size]
	return w.buf[off:]
}

// F64s appends a length-prefixed []float64.
func (w *Writer) F64s(vs []float64) {
	p := w.vector(len(vs), 8)
	for i, v := range vs {
		binary.LittleEndian.PutUint64(p[8*i:], math.Float64bits(v))
	}
}

// Ints appends a length-prefixed []int.
func (w *Writer) Ints(vs []int) {
	p := w.vector(len(vs), 8)
	for i, v := range vs {
		binary.LittleEndian.PutUint64(p[8*i:], uint64(int64(v)))
	}
}

// I64s appends a length-prefixed []int64: the wire format of Ints.
func (w *Writer) I64s(vs []int64) {
	p := w.vector(len(vs), 8)
	for i, v := range vs {
		binary.LittleEndian.PutUint64(p[8*i:], uint64(v))
	}
}

// U64s appends a length-prefixed []uint64.
func (w *Writer) U64s(vs []uint64) {
	p := w.vector(len(vs), 8)
	for i, v := range vs {
		binary.LittleEndian.PutUint64(p[8*i:], v)
	}
}

// I8s appends a length-prefixed []int8 (used for spin grids).
func (w *Writer) I8s(vs []int8) {
	p := w.vector(len(vs), 1)
	for i, v := range vs {
		p[i] = byte(v)
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

// vector reads the length prefix of a vector of size-byte elements and
// returns its payload, advancing past both; ok is false, with the sticky
// error set, when the prefix is unreadable, negative or longer than the
// stream. The bound is checked as an element count against the bytes left,
// so no hostile length can overflow the offset arithmetic.
func (r *Reader) vector(size int, what string) (p []byte, ok bool) {
	n := r.Int()
	if r.err != nil || n < 0 || n > (len(r.buf)-r.off)/size {
		r.fail(what)
		return nil, false
	}
	end := r.off + n*size
	p = r.buf[r.off:end:end]
	r.off = end
	return p, true
}

// Bytes8 reads a length-prefixed byte slice.
func (r *Reader) Bytes8() []byte {
	p, ok := r.vector(1, "bytes")
	if !ok {
		return nil
	}
	b := make([]byte, len(p))
	copy(b, p)
	return b
}

// Bytes8Borrow reads a length-prefixed byte slice without copying: the
// result aliases the reader's input stream. It is the zero-copy variant for
// decoding out of immutable blobs (stable-storage files and read replies,
// which are never mutated once written); the caller must treat the result as
// read-only and must not use it to outlive a mutable input buffer.
func (r *Reader) Bytes8Borrow() []byte {
	p, _ := r.vector(1, "bytes")
	return p
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes8()) }

// F64s reads a length-prefixed []float64 into a fresh slice.
func (r *Reader) F64s() []float64 { return r.F64sInto(nil) }

// F64sInto reads a length-prefixed []float64 into dst's storage, growing it
// only when the capacity is short — the reuse variant for decode paths that
// drain a stream per iteration (collective fan-ins, halo rows). A nil dst
// gets a fresh slice, empty but not nil for an empty vector.
func (r *Reader) F64sInto(dst []float64) []float64 {
	p, ok := r.vector(8, "[]float64")
	if !ok {
		return nil
	}
	n := len(p) / 8
	if dst == nil || cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	return dst
}

// Ints reads a length-prefixed []int.
func (r *Reader) Ints() []int {
	p, ok := r.vector(8, "[]int")
	if !ok {
		return nil
	}
	vs := make([]int, len(p)/8)
	for i := range vs {
		vs[i] = int(int64(binary.LittleEndian.Uint64(p)))
		p = p[8:]
	}
	return vs
}

// I64s reads a length-prefixed []int64.
func (r *Reader) I64s() []int64 {
	p, ok := r.vector(8, "[]int64")
	if !ok {
		return nil
	}
	vs := make([]int64, len(p)/8)
	for i := range vs {
		vs[i] = int64(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	return vs
}

// I8s reads a length-prefixed []int8.
func (r *Reader) I8s() []int8 {
	p, ok := r.vector(1, "[]int8")
	if !ok {
		return nil
	}
	vs := make([]int8, len(p))
	for i, b := range p {
		vs[i] = int8(b)
	}
	return vs
}
