package rng

import (
	"math"
	"testing"
)

func TestDeterministicStream(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at %d", i)
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

func TestUniformity(t *testing.T) {
	r := New(12345)
	const buckets, samples = 16, 160000
	var count [buckets]int
	for i := 0; i < samples; i++ {
		count[r.Uint64()%buckets]++
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
