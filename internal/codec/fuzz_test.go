package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// FuzzCodecRoundTrip drives Writer/Reader with an arbitrary instruction
// stream: the fuzz input is decoded into a sequence of typed values, encoded
// with Writer, and read back with Reader. Every value must survive the round
// trip exactly, the reader must end cleanly with no residue, and — on the
// adversarial side — feeding the raw fuzz input straight into a Reader must
// never panic, whatever it holds: a vector's length prefix too large for the
// stream fails the read, even where its byte count overflows an int.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add([]byte("\x02\x00\x00\x00\x00\x00\x00\x00hi"))
	// Length prefixes whose byte counts overflow the offset arithmetic: 8n
	// wraps to zero for 1<<61, off+n wraps negative for MaxInt64-2.
	for _, n := range []uint64{1 << 61, math.MaxInt64 - 2} {
		f.Add(append(binary.LittleEndian.AppendUint64(nil, n), bytes.Repeat([]byte{7}, 24)...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Phase 1: interpret data as instructions, round-trip the values.
		type op struct {
			kind byte
			u    uint64
			b    []byte
			i8s  []int8
			i64s []int64
		}
		var ops []op
		w := NewWriter()
		for i := 0; i < len(data); {
			kind := data[i] % 8
			i++
			var u uint64
			if i+8 <= len(data) {
				u = binary.LittleEndian.Uint64(data[i:])
				i += 8
			}
			o := op{kind: kind, u: u}
			switch kind {
			case 0:
				w.U64(u)
			case 1:
				w.I64(int64(u))
			case 2:
				// NaN payloads are not preserved bit-exactly through
				// float64(bits) comparisons; canonicalize them.
				fv := math.Float64frombits(u)
				if math.IsNaN(fv) {
					fv = math.NaN()
				}
				o.u = math.Float64bits(fv)
				w.F64(fv)
			case 3:
				w.Bool(u&1 == 1)
			case 4:
				n := int(u % 32)
				if n > len(data)-i {
					n = len(data) - i
				}
				o.b = append([]byte(nil), data[i:i+n]...)
				i += n
				w.Bytes8(o.b)
			case 5:
				w.Int(int(int64(u)))
			case 6:
				n := int(u % 16)
				if n > len(data)-i {
					n = len(data) - i
				}
				for _, c := range data[i : i+n] {
					o.i8s = append(o.i8s, int8(c))
				}
				i += n
				w.I8s(o.i8s)
			case 7:
				n := int(u % 8)
				for ; n > 0 && i+8 <= len(data); n-- {
					o.i64s = append(o.i64s, int64(binary.LittleEndian.Uint64(data[i:])))
					i += 8
				}
				w.I64s(o.i64s)
			}
			ops = append(ops, o)
		}

		r := NewReader(w.Bytes())
		for k, o := range ops {
			switch o.kind {
			case 0:
				if got := r.U64(); got != o.u {
					t.Fatalf("op %d: U64 = %d, want %d", k, got, o.u)
				}
			case 1:
				if got := r.I64(); got != int64(o.u) {
					t.Fatalf("op %d: I64 = %d, want %d", k, got, int64(o.u))
				}
			case 2:
				if got := math.Float64bits(r.F64()); got != o.u {
					t.Fatalf("op %d: F64 bits = %x, want %x", k, got, o.u)
				}
			case 3:
				if got := r.Bool(); got != (o.u&1 == 1) {
					t.Fatalf("op %d: Bool = %v", k, got)
				}
			case 4:
				if got := r.Bytes8(); !bytes.Equal(got, o.b) {
					t.Fatalf("op %d: Bytes8 = %x, want %x", k, got, o.b)
				}
			case 5:
				if got := r.Int(); got != int(int64(o.u)) {
					t.Fatalf("op %d: Int = %d, want %d", k, got, int(int64(o.u)))
				}
			case 6:
				got := r.I8s()
				if len(got) != len(o.i8s) {
					t.Fatalf("op %d: I8s len = %d, want %d", k, len(got), len(o.i8s))
				}
				for j := range got {
					if got[j] != o.i8s[j] {
						t.Fatalf("op %d: I8s[%d] = %d, want %d", k, j, got[j], o.i8s[j])
					}
				}
			case 7:
				if got := r.I64s(); !slices.Equal(got, o.i64s) {
					t.Fatalf("op %d: I64s = %v, want %v", k, got, o.i64s)
				}
			}
		}
		if r.Err() != nil {
			t.Fatalf("round trip errored: %v", r.Err())
		}
		if r.Remaining() != 0 {
			t.Fatalf("%d bytes left after reading everything back", r.Remaining())
		}

		// Phase 2: the raw input as a hostile stream. Reads must never panic,
		// and once an error occurs it must be sticky with zero-value results.
		// Each vector decoder first reads the input's own leading length.
		for _, decode := range []func(*Reader){
			func(r *Reader) { r.Bytes8() }, func(r *Reader) { r.Bytes8Borrow() },
			func(r *Reader) { r.F64s() }, func(r *Reader) { r.F64sInto(nil) },
			func(r *Reader) { r.Ints() }, func(r *Reader) { r.I64s() },
			func(r *Reader) { r.I8s() },
		} {
			decode(NewReader(data))
		}
		hr := NewReader(data)
		for i := 0; i < 8; i++ {
			hr.U64()
			hr.Bool()
			hr.Bytes8()
			hr.F64s()
			hr.Ints()
			hr.I8s()
			hr.I64s()
			hr.F64sInto(nil)
			hr.Bytes8Borrow()
			_ = hr.String()
		}
		if hr.Err() != nil {
			if got := hr.U64(); got != 0 {
				t.Fatalf("read after sticky error returned %d, want 0", got)
			}
			if got := hr.Bytes8(); got != nil {
				t.Fatalf("read after sticky error returned %x, want nil", got)
			}
		}
	})
}
