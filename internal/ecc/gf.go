// Package ecc implements the error-correction substrate Salamander's page
// tiredness model is built on: GF(2^m) arithmetic, a real BCH encoder/decoder
// (syndromes, Berlekamp–Massey, Chien search), and an analytic capability
// model that maps spare bytes to a correction capability t and t to a maximum
// tolerable raw bit-error rate under a UBER target.
//
// The data-path device (internal/core, internal/ssd) runs the real codec so
// stored bytes genuinely survive injected bit flips; the bulk lifetime
// simulators use the analytic model, and the tests cross-validate the two.
package ecc

import "fmt"

// primitivePolys[m] is a primitive polynomial of degree m over GF(2),
// encoded with bit i = coefficient of x^i. Degrees 2..16 cover every code
// this repository constructs (and the small fields the tests exercise).
var primitivePolys = map[int]uint32{
	2:  0x7,     // x^2+x+1
	3:  0xB,     // x^3+x+1
	4:  0x13,    // x^4+x+1
	5:  0x25,    // x^5+x^2+1
	6:  0x43,    // x^6+x+1
	7:  0x89,    // x^7+x^3+1
	8:  0x11D,   // x^8+x^4+x^3+x^2+1
	9:  0x211,   // x^9+x^4+1
	10: 0x409,   // x^10+x^3+1
	11: 0x805,   // x^11+x^2+1
	12: 0x1053,  // x^12+x^6+x^4+x+1
	13: 0x201B,  // x^13+x^4+x^3+x+1
	14: 0x4443,  // x^14+x^10+x^6+x+1
	15: 0x8003,  // x^15+x+1
	16: 0x1100B, // x^16+x^12+x^3+x+1
}

// Field is GF(2^m) with log/antilog tables for O(1) multiply and inverse.
type Field struct {
	M   int // extension degree
	N   int // multiplicative group order, 2^m - 1
	exp []uint32
	log []int32
}

// NewField constructs GF(2^m). It panics if no primitive polynomial is known
// for m; this is a programming error, not an input error.
func NewField(m int) *Field {
	pp, ok := primitivePolys[m]
	if !ok {
		panic(fmt.Sprintf("ecc: no primitive polynomial for GF(2^%d)", m))
	}
	n := (1 << m) - 1
	f := &Field{
		M:   m,
		N:   n,
		exp: make([]uint32, 2*n), // doubled so Mul can skip a mod
		log: make([]int32, n+1),
	}
	f.log[0] = -1 // log of zero is undefined
	x := uint32(1)
	for i := 0; i < n; i++ {
		f.exp[i] = x
		f.exp[i+n] = x
		f.log[x] = int32(i)
		x <<= 1
		if x&(1<<m) != 0 {
			x ^= pp
		}
	}
	return f
}

// Mul returns a*b in GF(2^m).
func (f *Field) Mul(a, b uint32) uint32 {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[f.log[a]+f.log[b]]
}

// Inv returns the multiplicative inverse of a. It panics on a == 0.
func (f *Field) Inv(a uint32) uint32 {
	if a == 0 {
		panic("ecc: inverse of zero")
	}
	return f.exp[f.N-int(f.log[a])]
}

// Div returns a/b. It panics on b == 0.
func (f *Field) Div(a, b uint32) uint32 {
	if b == 0 {
		panic("ecc: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(f.log[a]) - int(f.log[b])
	if d < 0 {
		d += f.N
	}
	return f.exp[d]
}

// Alpha returns α^i, the i-th power of the primitive element.
func (f *Field) Alpha(i int) uint32 {
	i %= f.N
	if i < 0 {
		i += f.N
	}
	return f.exp[i]
}

// Log returns log_α(a). It panics on a == 0.
func (f *Field) Log(a uint32) int {
	if a == 0 {
		panic("ecc: log of zero")
	}
	return int(f.log[a])
}

// PolyEval evaluates the polynomial with coefficients coef (coef[i] is the
// coefficient of x^i) at point x, by Horner's rule.
func (f *Field) PolyEval(coef []uint32, x uint32) uint32 {
	var acc uint32
	for i := len(coef) - 1; i >= 0; i-- {
		acc = f.Mul(acc, x) ^ coef[i]
	}
	return acc
}
