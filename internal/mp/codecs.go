package mp

import "repro/internal/codec"

// encodeF64s / decodeF64s are the wire format of float64 vectors used by the
// collectives.
func encodeF64s(vs []float64) []byte {
	w := codec.NewWriter()
	w.F64s(vs)
	return w.Bytes()
}

func decodeF64s(b []byte) []float64 {
	r := codec.NewReader(b)
	vs := r.F64s()
	if r.Err() != nil {
		panic("mp: corrupt float vector: " + r.Err().Error())
	}
	return vs
}

// EncodeF64s exposes the vector encoding to applications that ship float
// rows around.
func EncodeF64s(vs []float64) []byte { return encodeF64s(vs) }

// EncodeF64sInto encodes vs into w — pooled or reused scratch — instead of a
// fresh writer. The returned bytes alias w's buffer, so they must be copied
// (or fully consumed) before the writer is reset or freed; bytes that ship on
// the fabric must keep using EncodeF64s, because in-flight and logged message
// bodies have no trackable death point.
func EncodeF64sInto(w *codec.Writer, vs []float64) []byte {
	w.F64s(vs)
	return w.Bytes()
}

// DecodeF64s decodes a vector encoded by EncodeF64s.
func DecodeF64s(b []byte) []float64 { return decodeF64s(b) }

// DecodeF64sInto decodes a vector into dst's storage, growing it only when
// the capacity is short — the allocation-free variant for fan-in loops that
// decode one contribution per iteration and fold it away immediately.
func DecodeF64sInto(dst []float64, b []byte) []float64 {
	var r codec.Reader
	r.Reset(b)
	vs := r.F64sInto(dst)
	if r.Err() != nil {
		panic("mp: corrupt float vector: " + r.Err().Error())
	}
	return vs
}

// Thin indirections keep the main file free of codec imports.
func codecWriter() *codec.Writer         { return codec.NewWriter() }
func codecReader(b []byte) *codec.Reader { return codec.NewReader(b) }

func getU64s(r *codec.Reader) []uint64 {
	n := r.Int()
	if n < 0 || r.Err() != nil {
		panic("mp: corrupt u64 vector")
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = r.U64()
	}
	return vs
}
