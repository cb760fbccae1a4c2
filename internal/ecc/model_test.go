package ecc

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"salamander/internal/stats"
)

func TestSectorGeometryBasics(t *testing.T) {
	g := SectorGeometry{M: 13, DataBytes: 512, SpareBytes: 64}
	if got := g.T(); got != 64*8/13 {
		t.Errorf("T = %d", got)
	}
	if got := g.CodewordBits(); got != 512*8+g.T()*13 {
		t.Errorf("CodewordBits = %d", got)
	}
	r := g.Rate()
	if r <= 0.8 || r >= 0.95 {
		t.Errorf("rate = %v, expected ~0.89 for the L0 geometry", r)
	}
	if !strings.Contains(g.String(), "t=39") {
		t.Errorf("String() = %q", g.String())
	}
}

// The Salamander tiredness ladder: level L converts L oPages (4KB each) of a
// 16KB fPage into parity, spread over the remaining (4-L)*8 sectors of 512B.
func tirednessGeometry(level int) SectorGeometry {
	const (
		fPageData  = 16 * 1024
		fPageSpare = 2 * 1024
		oPage      = 4 * 1024
		sector     = 512
	)
	dataSectors := (fPageData - level*oPage) / sector
	spareTotal := fPageSpare + level*oPage
	return SectorGeometry{M: 13, DataBytes: sector, SpareBytes: spareTotal / dataSectors}
}

func TestTirednessLadderRates(t *testing.T) {
	// Paper §1: typical code rate 88%; §3.1/Fig 2: L1 = 12KB data in 18KB.
	wantApprox := []float64{16.0 / 18.0, 12.0 / 18.0, 8.0 / 18.0, 4.0 / 18.0}
	for l := 0; l <= 3; l++ {
		g := tirednessGeometry(l)
		if math.Abs(g.Rate()-wantApprox[l]) > 0.02 {
			t.Errorf("L%d rate = %.3f, want ~%.3f", l, g.Rate(), wantApprox[l])
		}
	}
}

func TestMaxRBERGrowsWithTiredness(t *testing.T) {
	prev := 0.0
	for l := 0; l <= 3; l++ {
		g := tirednessGeometry(l)
		p := g.MaxRBER(1e-15)
		if p <= prev {
			t.Fatalf("L%d MaxRBER %v not greater than L%d's %v", l, p, l-1, prev)
		}
		prev = p
	}
}

func TestMaxRBERDiminishingReturns(t *testing.T) {
	// Fig. 2's shape: each extra sacrificed oPage buys proportionally less.
	var rbers []float64
	for l := 0; l <= 3; l++ {
		rbers = append(rbers, tirednessGeometry(l).MaxRBER(1e-15))
	}
	prevGain := math.Inf(1)
	for l := 1; l <= 3; l++ {
		gain := rbers[l] / rbers[l-1]
		if gain >= prevGain {
			t.Fatalf("RBER gain at L%d (%v) not diminishing vs previous (%v)", l, gain, prevGain)
		}
		prevGain = gain
	}
}

func TestUncorrectableProbMonotone(t *testing.T) {
	g := tirednessGeometry(0)
	prev := -1.0
	for _, rber := range []float64{1e-5, 1e-4, 1e-3, 1e-2} {
		p := g.UncorrectableProb(rber)
		if p < prev {
			t.Fatalf("UncorrectableProb not monotone at rber=%v", rber)
		}
		prev = p
	}
	thresh := g.MaxRBER(1e-15)
	if p := g.UncorrectableProb(thresh); p > 1e-15 {
		t.Errorf("at MaxRBER the failure prob %v exceeds the target", p)
	}
}

func TestBuildRejectsOverBudget(t *testing.T) {
	// SpareBytes so small the generator parity cannot fit is impossible by
	// construction (t = spare*8/m rounds down), but t=0 must be rejected.
	g := SectorGeometry{M: 13, DataBytes: 512, SpareBytes: 1}
	if _, err := g.Build(); err == nil {
		t.Error("t=0 geometry built successfully")
	}
}

// TestBuildSharesOneCodePerGeometry pins Build's memoization: every caller
// of one geometry, concurrent ones included, gets the same *Code, and a
// different geometry gets its own.
func TestBuildSharesOneCodePerGeometry(t *testing.T) {
	g := SectorGeometry{M: 10, DataBytes: 32, SpareBytes: 5}
	codes := make([]*Code, 8)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := g.Build()
			if err != nil {
				t.Error(err)
			}
			codes[i] = c
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c == nil || c != codes[0] {
			t.Fatalf("Build call %d returned %p, call 0 returned %p", i, c, codes[0])
		}
	}
	other, err := SectorGeometry{M: 10, DataBytes: 32, SpareBytes: 6}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if other == codes[0] {
		t.Fatal("two geometries share one code")
	}
}

// Cross-validation: the analytic model's MaxRBER must agree with the real
// codec — at RBER well below the threshold the codec always corrects; the
// designed t matches the analytic t.
func TestAnalyticMatchesRealCodec(t *testing.T) {
	g := SectorGeometry{M: 10, DataBytes: 64, SpareBytes: 10} // t=8, small & fast
	c, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.T != g.T() {
		t.Fatalf("codec t=%d, analytic t=%d", c.T, g.T())
	}
	rng := stats.NewRNG(5)
	// At an RBER whose expected flips are ~t/4, failures should be absent
	// in a small sample; every injected pattern ≤ t must decode.
	rber := float64(c.T) / 4 / float64(c.N)
	for trial := 0; trial < 40; trial++ {
		data := make([]byte, g.DataBytes)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		parity, _ := c.Encode(data)
		flips := int(rng.Binomial(int64(c.N), rber))
		if flips > c.T {
			continue
		}
		seen := map[int]bool{}
		for len(seen) < flips {
			p := rng.Intn(c.N)
			if !seen[p] {
				seen[p] = true
				flipBit(data, parity, p, c.K)
			}
		}
		if _, err := c.Decode(data, parity); err != nil {
			t.Fatalf("codec failed below analytic threshold (flips=%d t=%d)", flips, c.T)
		}
	}
}

// TestAllLevelCodecsRoundTrip builds the real BCH codec for every tiredness
// level the ladder defines (including the wide-field L2/L3 codes) and
// verifies correction of a scattered error pattern.
func TestAllLevelCodecsRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("L3 generator construction is slow")
	}
	levels := []SectorGeometry{
		{M: 13, DataBytes: 512, SpareBytes: 64},   // L0
		{M: 13, DataBytes: 512, SpareBytes: 256},  // L1
		{M: 14, DataBytes: 512, SpareBytes: 640},  // L2
		{M: 15, DataBytes: 512, SpareBytes: 1792}, // L3
	}
	rng := stats.NewRNG(11)
	for li, g := range levels {
		code, err := g.Build()
		if err != nil {
			t.Fatalf("L%d: %v", li, err)
		}
		data := make([]byte, g.DataBytes)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		parity, err := code.Encode(data)
		if err != nil {
			t.Fatalf("L%d encode: %v", li, err)
		}
		orig := append([]byte(nil), data...)
		// Inject t/4 scattered errors (a realistic mid-life burden).
		nerr := code.T / 4
		seen := map[int]bool{}
		for len(seen) < nerr {
			p := rng.Intn(code.N)
			if !seen[p] {
				seen[p] = true
				flipBit(data, parity, p, code.K)
			}
		}
		n, err := code.Decode(data, parity)
		if err != nil {
			t.Fatalf("L%d decode (t=%d, nerr=%d): %v", li, code.T, nerr, err)
		}
		if n != nerr || !bytes.Equal(data, orig) {
			t.Fatalf("L%d: corrected %d of %d, restored=%v", li, n, nerr, bytes.Equal(data, orig))
		}
	}
}
