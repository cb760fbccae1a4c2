package ecc

import (
	"bytes"
	"slices"
	"testing"

	"salamander/internal/stats"
)

// smallCode builds a fast code for exhaustive-ish tests: GF(2^10),
// 64 data bytes, t=8.
func smallCode(t *testing.T) *Code {
	t.Helper()
	c, err := NewCode(10, 64*8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCodeValidation(t *testing.T) {
	if _, err := NewCode(10, 7, 4); err == nil {
		t.Error("non-multiple-of-8 dataBits accepted")
	}
	if _, err := NewCode(10, 0, 4); err == nil {
		t.Error("zero dataBits accepted")
	}
	if _, err := NewCode(10, 512, 0); err == nil {
		t.Error("t=0 accepted")
	}
	// 2^10-1 = 1023 bits total; 1000 data bits + 10*4 parity doesn't fit.
	if _, err := NewCode(10, 1000, 4); err == nil {
		t.Error("oversized codeword accepted")
	}
}

func TestCodeParameters(t *testing.T) {
	c := smallCode(t)
	if c.K != 512 {
		t.Errorf("K = %d", c.K)
	}
	if c.R > 10*8 {
		t.Errorf("R = %d exceeds m*t = 80", c.R)
	}
	if c.N != c.K+c.R {
		t.Errorf("N = %d != K+R", c.N)
	}
}

func TestEncodeRejectsWrongLength(t *testing.T) {
	c := smallCode(t)
	if _, err := c.Encode(make([]byte, 63)); err == nil {
		t.Error("short data accepted")
	}
	if _, err := c.Decode(make([]byte, 63), make([]byte, c.ParityBytes())); err == nil {
		t.Error("short decode data accepted")
	}
	if _, err := c.Decode(make([]byte, 64), make([]byte, 1)); err == nil {
		t.Error("short parity accepted")
	}
}

func TestEncodeCheckRoundTrip(t *testing.T) {
	c := smallCode(t)
	rng := stats.NewRNG(1)
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, 64)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		parity, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(parity) != c.ParityBytes() {
			t.Fatalf("parity length %d", len(parity))
		}
		if !c.Check(data, parity) {
			t.Fatal("fresh codeword fails Check")
		}
		n, err := c.Decode(data, parity)
		if err != nil || n != 0 {
			t.Fatalf("clean decode: n=%d err=%v", n, err)
		}
	}
}

func TestDecodeCorrectsUpToT(t *testing.T) {
	c := smallCode(t)
	rng := stats.NewRNG(2)
	for nerr := 1; nerr <= c.T; nerr++ {
		for trial := 0; trial < 10; trial++ {
			data := make([]byte, 64)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			parity, err := c.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			orig := append([]byte(nil), data...)
			origP := append([]byte(nil), parity...)

			// Flip nerr distinct bits anywhere in the codeword.
			flipped := map[int]bool{}
			for len(flipped) < nerr {
				p := rng.Intn(c.N)
				if !flipped[p] {
					flipped[p] = true
					flipBit(data, parity, p, c.K)
				}
			}
			n, err := c.Decode(data, parity)
			if err != nil {
				t.Fatalf("nerr=%d trial=%d: decode failed: %v", nerr, trial, err)
			}
			if n != nerr {
				t.Fatalf("nerr=%d: corrected %d", nerr, n)
			}
			if !bytes.Equal(data, orig) || !bytes.Equal(parity, origP) {
				t.Fatalf("nerr=%d: data not restored", nerr)
			}
		}
	}
}

func TestDecodeDetectsBeyondT(t *testing.T) {
	c := smallCode(t)
	rng := stats.NewRNG(3)
	detected, miscorrected := 0, 0
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		data := make([]byte, 64)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		parity, _ := c.Encode(data)
		orig := append([]byte(nil), data...)
		// t+2 errors: mostly detectable, occasionally miscorrected — that
		// is inherent to bounded-distance decoding.
		flipped := map[int]bool{}
		for len(flipped) < c.T+2 {
			p := rng.Intn(c.N)
			if !flipped[p] {
				flipped[p] = true
				flipBit(data, parity, p, c.K)
			}
		}
		if _, err := c.Decode(data, parity); err != nil {
			detected++
		} else if !bytes.Equal(data, orig) {
			miscorrected++
		}
	}
	if detected == 0 {
		t.Fatal("no t+2-bit pattern was detected as uncorrectable")
	}
	// Most should be detected; miscorrection probability for t+2 errors is
	// small but nonzero.
	if detected < trials/2 {
		t.Fatalf("only %d/%d beyond-t patterns detected (miscorrected silently: %d)",
			detected, trials, miscorrected)
	}
}

func TestDecodeBurstErrors(t *testing.T) {
	c := smallCode(t)
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i * 7)
	}
	parity, _ := c.Encode(data)
	orig := append([]byte(nil), data...)
	// A burst of t consecutive bit errors spanning a byte boundary.
	for i := 0; i < c.T; i++ {
		flipBit(data, parity, 60+i, c.K)
	}
	n, err := c.Decode(data, parity)
	if err != nil {
		t.Fatalf("burst decode failed: %v", err)
	}
	if n != c.T || !bytes.Equal(data, orig) {
		t.Fatalf("burst not corrected: n=%d", n)
	}
}

func TestDecodeErrorsInParity(t *testing.T) {
	c := smallCode(t)
	data := make([]byte, 64)
	data[0] = 0xAB
	parity, _ := c.Encode(data)
	want := append([]byte(nil), parity...)
	// Flip bits only inside the parity region.
	for i := 0; i < 3; i++ {
		flipBit(data, parity, c.K+i*5, c.K)
	}
	n, err := c.Decode(data, parity)
	if err != nil || n != 3 {
		t.Fatalf("parity-error decode: n=%d err=%v", n, err)
	}
	if !bytes.Equal(parity, want) {
		t.Fatal("parity not restored")
	}
}

func TestAllZeroAndAllOnesData(t *testing.T) {
	c := smallCode(t)
	for _, fill := range []byte{0x00, 0xFF} {
		data := bytes.Repeat([]byte{fill}, 64)
		parity, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Check(data, parity) {
			t.Fatalf("fill %#x fails check", fill)
		}
		flipBit(data, parity, 100, c.K)
		if n, err := c.Decode(data, parity); err != nil || n != 1 {
			t.Fatalf("fill %#x: n=%d err=%v", fill, n, err)
		}
	}
}

func TestCheckRejectsCorruption(t *testing.T) {
	c := smallCode(t)
	data := make([]byte, 64)
	parity, _ := c.Encode(data)
	data[10] ^= 0x01
	if c.Check(data, parity) {
		t.Fatal("Check passed corrupted data")
	}
	if c.Check(data[:10], parity) {
		t.Fatal("Check passed wrong-length data")
	}
}

// TestFlashScaleCode builds the production geometry (512B sectors over
// GF(2^13)) and verifies correction at its designed t.
func TestFlashScaleCode(t *testing.T) {
	g := SectorGeometry{M: 13, DataBytes: 512, SpareBytes: 64}
	c, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.T != g.T() {
		t.Fatalf("T = %d, want %d", c.T, g.T())
	}
	rng := stats.NewRNG(4)
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]byte(nil), data...)
	flipped := map[int]bool{}
	for len(flipped) < c.T {
		p := rng.Intn(c.N)
		if !flipped[p] {
			flipped[p] = true
			flipBit(data, parity, p, c.K)
		}
	}
	n, err := c.Decode(data, parity)
	if err != nil {
		t.Fatalf("flash-scale decode at t=%d failed: %v", c.T, err)
	}
	if n != c.T || !bytes.Equal(data, orig) {
		t.Fatalf("flash-scale correction wrong: n=%d", n)
	}
}

func TestGeneratorDividesXnMinus1(t *testing.T) {
	// g(x) must divide x^N - 1 over GF(2); equivalently every α^i for
	// i=1..2t is a root of g.
	for _, tc := range []struct{ m, t int }{{10, 4}, {13, 8}} {
		f := NewField(tc.m)
		g, err := generatorPoly(f, tc.t)
		if err != nil {
			t.Fatal(err)
		}
		deg := polyDegree(g)
		coef := make([]uint32, deg+1)
		for i := 0; i <= deg; i++ {
			if g[i/64]&(1<<uint(i%64)) != 0 {
				coef[i] = 1
			}
		}
		for i := 1; i <= 2*tc.t; i++ {
			if f.PolyEval(coef, f.Alpha(i)) != 0 {
				t.Errorf("m=%d t=%d: alpha^%d is not a root of g", tc.m, tc.t, i)
			}
		}
		if coef[0] != 1 {
			t.Errorf("m=%d t=%d: g(0) = 0 — x divides g", tc.m, tc.t)
		}
	}
}

func TestPolyMulGF2(t *testing.T) {
	// (x+1)(x+1) = x^2+1 over GF(2).
	a := []uint64{0b11}
	got := polyMulGF2(a, a)
	if got[0] != 0b101 {
		t.Errorf("(x+1)^2 = %b, want 101", got[0])
	}
	// Degree check across word boundary: x^63 * x^2 = x^65.
	b := []uint64{1 << 63}
	cpoly := []uint64{1 << 2}
	got = polyMulGF2(b, cpoly)
	if polyDegree(got) != 65 {
		t.Errorf("x^63*x^2 degree = %d", polyDegree(got))
	}
	if polyDegree([]uint64{0}) != -1 {
		t.Error("degree of zero poly should be -1")
	}
}

func TestBitHelpers(t *testing.T) {
	data := []byte{0x80, 0x01}
	parity := []byte{0x40}
	k := 16
	if bitAt(data, parity, 0, k) != 1 {
		t.Error("bit 0 should be MSB of data[0]")
	}
	if bitAt(data, parity, 15, k) != 1 {
		t.Error("bit 15 should be LSB of data[1]")
	}
	if bitAt(data, parity, 17, k) != 1 {
		t.Error("bit 17 should be bit 6 of parity[0]")
	}
	flipBit(data, parity, 0, k)
	if data[0] != 0 {
		t.Error("flip of bit 0 failed")
	}
	flipBit(data, parity, 17, k)
	if parity[0] != 0 {
		t.Error("flip of parity bit failed")
	}
}

// TestSlicedLFSRShapes covers the register shapes the level geometries do
// not reach: a data length that is not a whole number of 8-byte words (the
// byte-at-a-time tail of runLFSR), a register shorter than one word, and a
// multi-word register whose parity ends mid-word.
func TestSlicedLFSRShapes(t *testing.T) {
	rng := stats.NewRNG(11)
	for _, geo := range []struct{ m, dataBytes, t int }{
		{8, 3, 2}, {10, 13, 4}, {10, 21, 9}, {13, 70, 8},
	} {
		c, err := NewCode(geo.m, geo.dataBytes*8, geo.t)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			data := make([]byte, geo.dataBytes)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			parity, err := c.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(parity, c.EncodeBitSerial(data)) || !bytes.Equal(parity, c.EncodeReference(data)) {
				t.Fatalf("%+v: sliced parity differs from the references", geo)
			}
			p := rng.Intn(c.N)
			flipBit(data, parity, p, c.K)
			if c.Check(data, parity) {
				t.Fatalf("%+v: Check accepts a flipped bit %d", geo, p)
			}
			if n, err := c.Decode(data, parity); n != 1 || err != nil || !c.Check(data, parity) {
				t.Fatalf("%+v: one flipped bit decoded to n=%d err=%v", geo, n, err)
			}
		}
	}
}

// TestCorrectedVerifiesTheWord drives the syndrome check of a corrected
// word directly: Berlekamp–Massey plus a root count already reject nearly
// every pattern it would, so the decode tests alone cannot show it
// rejects. Flipping exactly the injected positions must verify; one fewer,
// one more, or one moved must not.
func TestCorrectedVerifiesTheWord(t *testing.T) {
	c := smallCode(t)
	rng := stats.NewRNG(21)
	s := c.getScratch()
	defer c.putScratch(s)
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, c.K/8)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		parity, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		pos := []int{}
		for len(pos) < 1+trial%(c.T-3) { // room for the triple: corrected takes <= T
			if p := rng.Intn(c.N); !slices.Contains(pos, p) {
				pos = append(pos, p)
				flipBit(data, parity, p, c.K)
			}
		}
		if c.remainder(s.reg, data, parity) {
			t.Fatal("corrupted word has a zero remainder")
		}
		c.syndromesInto(s.syn, s)
		other := (pos[0] + 1) % c.N
		for slices.Contains(pos, other) {
			other = (other + 1) % c.N
		}
		moved := append([]int{other}, pos[1:]...)
		// Three more flips whose α^d sum to zero leave S_1 alone, so only
		// the higher syndromes can reject them.
		var triple []int
		for triple == nil {
			a, b := rng.Intn(c.N), rng.Intn(c.N)
			x := c.F.Alpha(c.N-1-a) ^ c.F.Alpha(c.N-1-b)
			if a == b || x == 0 {
				continue
			}
			if d := c.F.Log(x); d < c.N {
				if p := c.N - 1 - d; !slices.Contains(pos, a) && !slices.Contains(pos, b) && !slices.Contains(pos, p) {
					triple = append(slices.Clone(pos), a, b, p)
				}
			}
		}
		for name, try := range map[string][]int{
			"exact": pos, "one fewer": pos[1:], "one more": append(slices.Clone(pos), other), "one moved": moved,
			"zero-sum triple more": triple,
		} {
			if got := c.corrected(s, try); got != (name == "exact") {
				t.Fatalf("trial %d, %s: corrected = %v", trial, name, got)
			}
		}
	}
}
