package ecc

import (
	"bytes"
	"testing"
	"testing/quick"

	"salamander/internal/stats"
)

// Property: for ANY data and ANY error pattern of weight <= t, decoding
// restores the original codeword exactly. This is the contract the whole
// tiredness ladder rests on.
func TestQuickDecodeWithinT(t *testing.T) {
	code, err := NewCode(10, 32*8, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &quick.Config{MaxCount: 200}
	prop := func(seed uint64, weightRaw uint8) bool {
		rng := stats.NewRNG(seed)
		data := make([]byte, 32)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		parity, err := code.Encode(data)
		if err != nil {
			return false
		}
		orig := append([]byte(nil), data...)
		origP := append([]byte(nil), parity...)
		weight := int(weightRaw) % (code.T + 1)
		flipped := map[int]bool{}
		for len(flipped) < weight {
			p := rng.Intn(code.N)
			if !flipped[p] {
				flipped[p] = true
				flipBit(data, parity, p, code.K)
			}
		}
		n, err := code.Decode(data, parity)
		return err == nil && n == weight &&
			bytes.Equal(data, orig) && bytes.Equal(parity, origP)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: encoding is deterministic and linear-systematic — the parity of
// a XOR of two messages is the XOR of their parities (BCH codes are linear).
func TestQuickEncodeLinear(t *testing.T) {
	code, err := NewCode(10, 32*8, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &quick.Config{MaxCount: 200}
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		a := make([]byte, 32)
		b := make([]byte, 32)
		x := make([]byte, 32)
		for i := range a {
			a[i] = byte(rng.Uint64())
			b[i] = byte(rng.Uint64())
			x[i] = a[i] ^ b[i]
		}
		pa, err1 := code.Encode(a)
		pb, err2 := code.Encode(b)
		px, err3 := code.Encode(x)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for i := range px {
			if px[i] != pa[i]^pb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Check accepts exactly the codewords Decode considers clean —
// any single-bit corruption is detected.
func TestQuickCheckDetectsSingleBit(t *testing.T) {
	code, err := NewCode(10, 16*8, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &quick.Config{MaxCount: 300}
	prop := func(seed uint64, posRaw uint16) bool {
		rng := stats.NewRNG(seed)
		data := make([]byte, 16)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		parity, err := code.Encode(data)
		if err != nil {
			return false
		}
		if !code.Check(data, parity) {
			return false
		}
		pos := int(posRaw) % code.N
		flipBit(data, parity, pos, code.K)
		return !code.Check(data, parity)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: GF(2^13) multiplicative inverses and distributivity hold for
// arbitrary elements (spot checks beyond the exhaustive GF(16) tests).
func TestQuickFieldLaws(t *testing.T) {
	f := NewField(13)
	cfg := &quick.Config{MaxCount: 2000}
	prop := func(aRaw, bRaw, cRaw uint16) bool {
		a := uint32(aRaw) % uint32(f.N+1)
		b := uint32(bRaw) % uint32(f.N+1)
		c := uint32(cRaw) % uint32(f.N+1)
		if f.Mul(a, b^c) != f.Mul(a, b)^f.Mul(a, c) {
			return false
		}
		if a != 0 {
			if f.Mul(a, f.Inv(a)) != 1 {
				return false
			}
		}
		return f.Mul(a, b) == f.Mul(b, a)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
