package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("same-seed generators diverged at step %d: %d vs %d", i, av, bv)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestSplitDecorrelates(t *testing.T) {
	a := NewRNG(7)
	b := a.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split stream matched parent %d/100 times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestUint64nUniform(t *testing.T) {
	r := NewRNG(6)
	// n not a power of two to exercise the rejection path.
	const n = 10
	counts := make([]int, n)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("value %d drawn %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(9)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalMoments(t *testing.T) {
	r := NewRNG(10)
	const n = 300000
	mean, cv := 3000.0, 0.15
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.LogNormal(mean, cv)
		if v <= 0 {
			t.Fatalf("lognormal produced non-positive %v", v)
		}
		sum += v
		sumsq += v * v
	}
	m := sum / n
	sd := math.Sqrt(sumsq/n - m*m)
	if math.Abs(m-mean)/mean > 0.01 {
		t.Errorf("lognormal mean = %v, want ~%v", m, mean)
	}
	if math.Abs(sd/m-cv)/cv > 0.05 {
		t.Errorf("lognormal cv = %v, want ~%v", sd/m, cv)
	}
}

func TestLogNormalZeroCV(t *testing.T) {
	r := NewRNG(11)
	if v := r.LogNormal(100, 0); v != 100 {
		t.Fatalf("LogNormal(100, 0) = %v, want exactly 100", v)
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	r := NewRNG(12)
	if v := r.Binomial(0, 0.5); v != 0 {
		t.Errorf("Binomial(0, .5) = %d", v)
	}
	if v := r.Binomial(100, 0); v != 0 {
		t.Errorf("Binomial(100, 0) = %d", v)
	}
	if v := r.Binomial(100, 1); v != 100 {
		t.Errorf("Binomial(100, 1) = %d", v)
	}
}

func TestBinomialSmallMean(t *testing.T) {
	r := NewRNG(13)
	const n, p, draws = 100000, 1e-4, 2000
	total := int64(0)
	for i := 0; i < draws; i++ {
		v := r.Binomial(n, p)
		if v < 0 || v > n {
			t.Fatalf("Binomial out of range: %d", v)
		}
		total += v
	}
	got := float64(total) / draws
	want := float64(n) * p
	if math.Abs(got-want) > 0.5 {
		t.Fatalf("binomial small-mean average %v, want ~%v", got, want)
	}
}

func TestBinomialLargeMean(t *testing.T) {
	r := NewRNG(14)
	const n, p, draws = 1 << 17, 0.01, 3000
	total := int64(0)
	for i := 0; i < draws; i++ {
		total += r.Binomial(n, p)
	}
	got := float64(total) / draws
	want := float64(n) * p
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("binomial large-mean average %v, want ~%v", got, want)
	}
}

func TestBinomialNeverExceedsN(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	err := quick.Check(func(seed uint64, nRaw uint32, pRaw float64) bool {
		n := int64(nRaw % 100000)
		p := math.Abs(pRaw)
		p -= math.Floor(p) // p in [0,1)
		v := NewRNG(seed).Binomial(n, p)
		return v >= 0 && v <= n
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(15)
	z := NewZipf(r, 100, 0.99)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("zipf not skewed: rank0=%d rank50=%d", counts[0], counts[50])
	}
	// Rank-0 frequency should be roughly 1/H_100(0.99) of the mass.
	if counts[0] < 10000 {
		t.Fatalf("zipf head too light: %d/100000", counts[0])
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := NewRNG(16)
	z := NewZipf(r, 10, 0)
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	for v, c := range counts {
		if math.Abs(float64(c)-draws/10) > 5*math.Sqrt(draws/10) {
			t.Fatalf("s=0 zipf not uniform: value %d count %d", v, c)
		}
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := NewRNG(17)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle altered elements: sum %d -> %d", sum, got)
	}
}
