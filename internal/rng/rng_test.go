package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterministicStream(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	r := New(7)
	for i := 0; i < 10; i++ {
		r.Uint64()
	}
	s := r.State()
	want := make([]uint64, 20)
	for i := range want {
		want[i] = r.Uint64()
	}
	r2 := New(0)
	r2.SetState(s)
	for i := range want {
		if got := r2.Uint64(); got != want[i] {
			t.Fatalf("restored stream diverges at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnRangeProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		nn := int(n%100) + 1
		r := New(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(nn)
			if v < 0 || v >= nn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUniformity(t *testing.T) {
	r := New(12345)
	const buckets, samples = 16, 160000
	var count [buckets]int
	for i := 0; i < samples; i++ {
		count[r.Intn(buckets)]++
	}
	exp := float64(samples) / buckets
	for i, c := range count {
		if math.Abs(float64(c)-exp) > 5*math.Sqrt(exp) {
			t.Fatalf("bucket %d count %d far from expected %.0f", i, c, exp)
		}
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(5)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("mean = %v, want ~1", mean)
	}
}
