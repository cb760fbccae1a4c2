package stats

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Percentile mutated input: %v", xs)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Observe(float64(i) + 0.5)
	}
	if h.n != 10 {
		t.Fatalf("N = %d, want 10", h.n)
	}
	if m := h.Mean(); math.Abs(m-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	for i, c := range h.Counts {
		if c != 1 {
			t.Fatalf("bucket %d count %d, want 1", i, c)
		}
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Observe(-100)
	h.Observe(1e9)
	if h.Counts[0] != 1 || h.Counts[4] != 1 {
		t.Fatalf("edge buckets = %v, want first/last = 1", h.Counts)
	}
	if h.n != 2 {
		t.Fatalf("N = %d", h.n)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i % 100))
	}
	if q := h.Quantile(0.5); math.Abs(q-50) > 2 {
		t.Errorf("median = %v, want ~50", q)
	}
	if q := h.Quantile(0.99); math.Abs(q-99) > 2 {
		t.Errorf("p99 = %v, want ~99", q)
	}
	empty := NewHistogram(0, 1, 4)
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %v", q)
	}
}

func TestHistogramPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram(1, 0, 4) did not panic")
		}
	}()
	NewHistogram(1, 0, 4)
}
