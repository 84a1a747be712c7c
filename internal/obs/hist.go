package obs

// DefaultDurationBounds are the histogram bucket upper bounds, in seconds, of
// every histogram the registry keeps. They span microseconds (protocol
// latencies) to minutes (blocked checkpoint writes on a congested host link).
var DefaultDurationBounds = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// Histogram is a fixed-bucket histogram: Counts[i] holds observations in
// (Bounds[i-1], Bounds[i]]; the final count is the overflow bucket above the
// last bound. Min/Max track the exact extremes so quantile interpolation can
// clamp the open-ended first and last buckets.
type Histogram struct {
	Bounds   []float64 // strictly increasing upper bounds
	Counts   []int64   // len(Bounds)+1
	Sum      float64
	N        int64
	Min, Max float64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{Bounds: bounds, Counts: make([]int64, len(bounds)+1)}
}

// NewHistogram returns an empty histogram with the given strictly increasing
// bucket upper bounds. It exists for callers outside the registry — the perf
// layer aggregates host wall-clock times through the same quantile machinery
// the virtual-time metrics use.
func NewHistogram(bounds []float64) *Histogram {
	return newHistogram(append([]float64(nil), bounds...))
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h.N == 0 || v < h.Min {
		h.Min = v
	}
	if h.N == 0 || v > h.Max {
		h.Max = v
	}
	h.N++
	h.Sum += v
	for i, b := range h.Bounds {
		if v <= b {
			h.Counts[i]++
			return
		}
	}
	h.Counts[len(h.Bounds)]++
}

// Mean returns the average of all observed values (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket containing rank q*N, clamped to the observed [Min, Max].
func (h *Histogram) Quantile(q float64) float64 {
	if h.N == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	rank := q * float64(h.N)
	cum := 0.0
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			lo := h.Min
			if i > 0 && h.Bounds[i-1] > lo {
				lo = h.Bounds[i-1]
			}
			hi := h.Max
			if i < len(h.Bounds) && h.Bounds[i] < hi {
				hi = h.Bounds[i]
			}
			if hi < lo {
				hi = lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum = next
	}
	return h.Max
}

// Merge adds other's observations into h. Both histograms must share the
// same bucket bounds (true for two metrics of the same name); otherwise only
// the scalar aggregates are merged.
func (h *Histogram) Merge(other *Histogram) {
	if other.N == 0 {
		return
	}
	if h.N == 0 || other.Min < h.Min {
		h.Min = other.Min
	}
	if h.N == 0 || other.Max > h.Max {
		h.Max = other.Max
	}
	h.N += other.N
	h.Sum += other.Sum
	if len(h.Counts) == len(other.Counts) {
		for i, c := range other.Counts {
			h.Counts[i] += c
		}
	}
}

// Clone returns an independent copy of h.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.Bounds = append([]float64(nil), h.Bounds...)
	c.Counts = append([]int64(nil), h.Counts...)
	return &c
}
