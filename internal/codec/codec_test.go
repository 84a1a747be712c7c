package codec

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	w := NewWriter()
	w.U64(math.MaxUint64)
	w.I64(-42)
	w.Int(1 << 40)
	w.F64(3.14159)
	w.Bool(true)
	w.Bool(false)
	w.String("hello, 世界")
	w.Bytes8([]byte{0, 1, 2})

	r := NewReader(w.Bytes())
	if r.U64() != math.MaxUint64 {
		t.Fatal("u64")
	}
	if r.I64() != -42 {
		t.Fatal("i64")
	}
	if r.Int() != 1<<40 {
		t.Fatal("int")
	}
	if r.F64() != 3.14159 {
		t.Fatal("f64")
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool")
	}
	if r.String() != "hello, 世界" {
		t.Fatal("string")
	}
	if !bytes.Equal(r.Bytes8(), []byte{0, 1, 2}) {
		t.Fatal("bytes")
	}
	if r.Err() != nil {
		t.Fatalf("err = %v", r.Err())
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

func TestRoundTripSlicesProperty(t *testing.T) {
	f := func(fs []float64, is []int, bs []int8, s string) bool {
		w := NewWriter()
		w.F64s(fs)
		w.Ints(is)
		w.I8s(bs)
		w.String(s)
		r := NewReader(w.Bytes())
		gf, gi, gb, gs := r.F64s(), r.Ints(), r.I8s(), r.String()
		if r.Err() != nil || r.Remaining() != 0 {
			return false
		}
		eqF := len(gf) == len(fs)
		for i := range fs {
			if !eqF {
				break
			}
			// NaN-safe comparison via bit patterns.
			if math.Float64bits(gf[i]) != math.Float64bits(fs[i]) {
				eqF = false
			}
		}
		eqI := len(gi) == len(is) && (len(is) == 0 || reflect.DeepEqual(gi, is))
		eqB := len(gb) == len(bs) && (len(bs) == 0 || reflect.DeepEqual(gb, bs))
		return eqF && eqI && eqB && gs == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedStreamsAreStickyErrors(t *testing.T) {
	w := NewWriter()
	w.F64s([]float64{1, 2, 3})
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		_ = r.F64s()
		if r.Err() == nil {
			t.Fatalf("cut at %d: no error", cut)
		}
		// Subsequent reads must not panic and must return zero values.
		if r.U64() != 0 || r.Int() != 0 || r.Bool() || r.String() != "" {
			t.Fatalf("cut at %d: non-zero read after error", cut)
		}
	}
}

func TestCorruptLengthPrefix(t *testing.T) {
	w := NewWriter()
	w.Int(-5) // bogus negative length
	r := NewReader(w.Bytes())
	if got := r.Bytes8(); got != nil || r.Err() == nil {
		t.Fatal("negative length not rejected")
	}
}

func TestDeterministicEncoding(t *testing.T) {
	enc := func() []byte {
		w := NewWriter()
		w.F64s([]float64{1.5, -2.5})
		w.String("state")
		w.Ints([]int{9, 8, 7})
		return w.Bytes()
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("identical state encoded differently")
	}
}

func TestEncodedSizeIsFootprint(t *testing.T) {
	w := NewWriter()
	w.F64s(make([]float64, 1000))
	if got := w.Len(); got != 8+8000 {
		t.Fatalf("encoded size = %d, want 8008", got)
	}
}

// TestVectorEncodersMatchElementLoop: reserving a vector's room up front must
// not change a byte of the stream — each vector encoder against the length
// prefix and element loop it stands for, from empty and nil to a few
// thousand elements, into a fresh writer and behind earlier content.
func TestVectorEncodersMatchElementLoop(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 7, 4096} { // -1: a nil slice
		var (
			f64s []float64
			ints []int
			u64s []uint64
			i8s  []int8
		)
		if n >= 0 {
			f64s, ints, u64s = make([]float64, n), make([]int, n), make([]uint64, n)
			i8s = make([]int8, n)
		}
		for i := 0; i < n; i++ {
			f64s[i], ints[i], u64s[i] = float64(i)*-1.5, i*-7919, uint64(i)<<40|1
			i8s[i] = int8(i)
		}
		for _, lead := range []int{0, 3} {
			got, want := NewWriter(), NewWriter()
			for i := 0; i < lead; i++ {
				got.Bool(true)
				want.Bool(true)
			}
			got.F64s(f64s)
			want.Int(len(f64s))
			for _, v := range f64s {
				want.F64(v)
			}
			got.Ints(ints)
			want.Int(len(ints))
			for _, v := range ints {
				want.Int(v)
			}
			got.U64s(u64s)
			want.Int(len(u64s))
			for _, v := range u64s {
				want.U64(v)
			}
			got.I8s(i8s)
			want.Int(len(i8s))
			for _, v := range i8s {
				want.buf = append(want.buf, byte(v))
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("n=%d behind %d bytes: vector encoders wrote %d bytes, element loops %d, or they differ",
					n, lead, got.Len(), want.Len())
			}
		}
	}
}
