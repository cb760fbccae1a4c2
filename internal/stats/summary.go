package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the q-th percentile (q in [0,100]) of xs using linear
// interpolation between closest ranks. xs need not be sorted. Returns 0 for
// an empty slice.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 100 {
		return s[len(s)-1]
	}
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Histogram is a fixed-bucket histogram over a half-open range [Min, Max).
// Out-of-range observations are clamped into the edge buckets so no sample
// is ever lost.
type Histogram struct {
	Min, Max float64
	Counts   []int64
	n        int64
	sum      float64
}

// NewHistogram creates a histogram with nbuckets equal-width buckets.
func NewHistogram(min, max float64, nbuckets int) *Histogram {
	if nbuckets <= 0 || max <= min {
		panic("stats: invalid histogram parameters")
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int64, nbuckets)}
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	i := int(float64(len(h.Counts)) * (x - h.Min) / (h.Max - h.Min))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.n++
	h.sum += x
}

// Mean returns the mean of all observations (not bucketed — exact).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile returns an approximate quantile (q in [0,1]) from bucket counts,
// interpolated within the containing bucket.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.n)
	cum := 0.0
	width := (h.Max - h.Min) / float64(len(h.Counts))
	for i, c := range h.Counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			frac := (target - cum) / float64(c)
			return h.Min + (float64(i)+frac)*width
		}
		cum = next
	}
	return h.Max
}

// String summarizes the histogram for logs.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist{n=%d mean=%.3g p50=%.3g p99=%.3g}",
		h.n, h.Mean(), h.Quantile(0.50), h.Quantile(0.99))
}
