package mp

import "repro/internal/codec"

// EncodeF64s is the wire format of float64 vectors, used by the collectives
// and by applications that ship float rows around.
func EncodeF64s(vs []float64) []byte {
	w := codec.NewWriter()
	w.F64s(vs)
	return w.Bytes()
}

// DecodeF64s decodes a vector encoded by EncodeF64s.
func DecodeF64s(b []byte) []float64 {
	r := codec.NewReader(b)
	vs := r.F64s()
	if r.Err() != nil {
		panic("mp: corrupt float vector: " + r.Err().Error())
	}
	return vs
}

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
