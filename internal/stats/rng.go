// Package stats provides deterministic pseudo-randomness and the small
// statistical toolkit the simulators are built on: binomial and lognormal
// sampling, log-domain binomial tails for uncorrectable-error probabilities,
// percentiles, and histograms.
//
// Everything in this package is deterministic given a seed, so every
// simulation in the repository is exactly reproducible.
package stats

import "math"

// RNG is a xoshiro256** pseudo-random generator. It is not safe for
// concurrent use; create one per goroutine (see Split).
//
// xoshiro256** is used instead of math/rand so that simulation results are
// stable across Go releases (math/rand's default source changed in Go 1.20).
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64, which guarantees
// a well-distributed internal state even for small or similar seeds.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent generator from r. The derived stream is
// decorrelated from r's future output, making it safe to hand one RNG to each
// simulated component.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd2b74407b1ce6e93)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n called with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling on the top bits to avoid modulo bias.
	threshold := -n % n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// LogNormal returns a lognormal variate such that the distribution of the
// result has the given mean and coefficient of variation (cv = stddev/mean).
// It is used to model per-block endurance variance in 3D NAND.
func (r *RNG) LogNormal(mean, cv float64) float64 {
	if mean <= 0 {
		panic("stats: LogNormal mean must be positive")
	}
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(mu + math.Sqrt(sigma2)*r.NormFloat64())
}

// Binomial returns the number of successes in n Bernoulli trials with
// per-trial probability p. For large n·p it uses a normal approximation,
// otherwise exact inversion or direct simulation; the crossover keeps the
// error far below anything visible at simulation scale while staying O(1)
// for the huge page-sized trials the flash simulator issues.
func (r *RNG) Binomial(n int64, p float64) int64 {
	switch {
	case n <= 0 || p <= 0:
		return 0
	case p >= 1:
		return n
	}
	mean := float64(n) * p
	if mean < 30 {
		// Poisson-style inversion on the geometric gaps between successes:
		// skip ahead by Geometric(p) per success. O(successes).
		var count, pos int64
		lq := math.Log1p(-p)
		for {
			u := r.Float64()
			gap := int64(math.Floor(math.Log(1-u) / lq))
			pos += gap + 1
			if pos > n {
				return count
			}
			count++
		}
	}
	// Normal approximation with continuity correction, clamped to [0, n].
	sd := math.Sqrt(mean * (1 - p))
	v := math.Round(mean + sd*r.NormFloat64())
	if v < 0 {
		v = 0
	}
	if v > float64(n) {
		v = float64(n)
	}
	return int64(v)
}

// Zipf generates values in [0, n) following a zipfian distribution with
// exponent s > 1 is not required; s may be any value > 0. It precomputes the
// CDF so sampling is O(log n).
type Zipf struct {
	cdf []float64
	rng *RNG
}

// NewZipf builds a zipfian sampler over n items with skew s (s=0 is uniform,
// s≈0.99 is the YCSB default). n must be positive.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf needs n > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Next returns the next zipfian sample in [0, n).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
