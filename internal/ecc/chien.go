package ecc

// Chien search kernels.
//
// The error locator σ(x) from Berlekamp–Massey has roots α^{-d} where d is
// the degree of an errored codeword term. The reference search
// (chienSearchRef, kept in export_test.go) evaluates σ at every candidate
// root with PolyEval — O(N·deg σ) full GF multiplies, each a dependent
// log/exp chain. The kernels below replace it on the decode hot path:
//
//   - deg σ == 1: solved directly from log σ₁ (no scan).
//   - deg σ == 2: solved algebraically via the affine substitution
//     x = (σ₁/σ₂)y, reducing to y² + y = σ₂/σ₁² and one lookup in the
//     per-code quadratic root table (chienQuad).
//   - deg σ <= chienSmallMax: incremental Chien over fixed-size stack
//     arrays (chienSmall) — the common few-bit-error case under realistic
//     RBER, where actual error counts are far below t.
//   - otherwise: the same incremental recurrence over pooled scratch
//     slices (chienLarge).
//
// The incremental form keeps each nonzero term σ_j·α^{-jd} in the log
// domain: stepping d → d+1 adds (|F*| - j) to the term's log, with one
// conditional wrap, and evaluation is a single exp-table load per term.
// Per candidate that is add/compare/load/xor per nonzero coefficient — all
// terms independent, so the chains pipeline — versus PolyEval's serial
// multiply chain over every coefficient including zeros. All kernels
// early-exit once deg σ roots are found (σ has no more), and all reproduce
// the reference's decoding-failure verdict: nil unless exactly deg σ roots
// land inside the shortened window.

// chienSmallMax bounds the degree handled by the stack-array kernel.
const chienSmallMax = 8

// noQuadRoot marks entries of the quadratic root table with no solution
// (elements of trace 1, exactly half the field).
const noQuadRoot = ^uint32(0)

// buildQuadTable precomputes qrt[v] = some z with z² + z = v, or noQuadRoot
// if v has no half (trace(v) = 1). The other solution is always z ^ 1.
// Cost: one pass over the field, 4·2^m bytes, paid once in NewCode; it
// feeds the deg σ == 2 solver.
func (c *Code) buildQuadTable() {
	f := c.F
	c.qrt = make([]uint32, 1<<uint(f.M))
	for i := range c.qrt {
		c.qrt[i] = noQuadRoot
	}
	for z := uint32(0); z <= uint32(f.N); z++ {
		v := f.Mul(z, z) ^ z
		if c.qrt[v] == noQuadRoot {
			c.qrt[v] = z
		}
	}
}

// degToBit maps the degree d of an errored codeword term to its bit index
// (0 = highest-degree data bit), or -1 when the degree falls outside the
// shortened codeword. Valid degrees are 0..N-1 — the code is shortened
// from 2^m - 1 to N bits, so roots α^{-d} with N <= d < 2^m - 1 point at
// bits that were never transmitted; finding one is a decoding failure.
// This is the single place the N-1-d window logic lives; every kernel and
// the deg σ == 1 direct solve go through it.
func (c *Code) degToBit(d int) int {
	if d < 0 || d >= c.N {
		return -1
	}
	return c.N - 1 - d
}

// rootToDeg maps a root x of σ to the degree of the errored term:
// x = α^{-d}, so d = log(1/x) = (|F*| - log x) mod |F*|.
func (c *Code) rootToDeg(x uint32) int {
	f := c.F
	return (f.N - f.Log(x)) % f.N
}

// chienDeg1 solves σ(x) = 1 + σ₁x directly: the single root is α^{-log σ₁}.
func (c *Code) chienDeg1(s *Scratch, sigma []uint32) []int {
	bit := c.degToBit(c.F.Log(sigma[1]))
	if bit < 0 {
		return nil
	}
	return append(s.pos[:0], bit)
}

// chienQuad solves σ(x) = 1 + σ₁x + σ₂x² algebraically. Substituting
// x = (σ₁/σ₂)y gives y² + y = σ₂/σ₁², solved by the quadratic root table;
// the two roots are y₀ and y₀+1. σ₁ == 0 means a repeated root (the two
// error positions coincide), which is never a valid locator — decoding
// failure, matching the reference's root-count check.
func (c *Code) chienQuad(s *Scratch, sigma []uint32) []int {
	f := c.F
	s1, s2 := sigma[1], sigma[2]
	if s1 == 0 {
		return nil
	}
	cst := f.Div(s2, f.Mul(s1, s1))
	y0 := c.qrt[cst]
	if y0 == noQuadRoot {
		return nil
	}
	scale := f.Div(s1, s2)
	b1 := c.degToBit(c.rootToDeg(f.Mul(scale, y0)))
	b2 := c.degToBit(c.rootToDeg(f.Mul(scale, y0^1)))
	if b1 < 0 || b2 < 0 {
		return nil
	}
	if b1 > b2 {
		b1, b2 = b2, b1
	}
	return append(s.pos[:0], b1, b2)
}

// chienTermsInto loads the nonzero σ coefficients (j >= 1) into parallel
// log/step arrays for the incremental scan: lt[i] starts at log σ_j (the
// term's log at d = 0) and advances by st[i] = |F*| - j per candidate.
// Returns the number of terms.
func (c *Code) chienTermsInto(lt, st []int32, sigma []uint32) int {
	f := c.F
	nz := 0
	for j := 1; j < len(sigma); j++ {
		if sigma[j] == 0 {
			continue
		}
		lt[nz] = f.log[sigma[j]]
		st[nz] = int32(f.N - j)
		nz++
	}
	return nz
}

// chienSmall is the incremental Chien scan for 3 <= deg σ <= chienSmallMax,
// the common case under realistic RBER. Terms live in fixed-size stack
// arrays; each candidate costs one add/wrap/load/xor per nonzero term.
func (c *Code) chienSmall(s *Scratch, sigma []uint32) []int {
	f := c.F
	var lt, st [chienSmallMax]int32
	nz := c.chienTermsInto(lt[:], st[:], sigma)
	degS := len(sigma) - 1
	exp := f.exp
	nf := int32(f.N)
	pos := s.pos[:0]
	for d := 0; d < c.N; d++ {
		acc := uint32(1)
		for i := 0; i < nz; i++ {
			acc ^= exp[lt[i]]
			lt[i] += st[i]
			if lt[i] >= nf {
				lt[i] -= nf
			}
		}
		if acc == 0 {
			pos = append(pos, c.degToBit(d))
			if len(pos) == degS {
				break
			}
		}
	}
	if len(pos) != degS {
		return nil
	}
	return pos
}

// chienLarge is the same incremental recurrence over pooled scratch slices,
// for locators beyond chienSmallMax — deep corruption near the code's t.
func (c *Code) chienLarge(s *Scratch, sigma []uint32) []int {
	f := c.F
	nz := c.chienTermsInto(s.chienLT, s.chienST, sigma)
	lt, st := s.chienLT[:nz], s.chienST[:nz]
	degS := len(sigma) - 1
	exp := f.exp
	nf := int32(f.N)
	pos := s.pos[:0]
	for d := 0; d < c.N; d++ {
		acc := uint32(1)
		for i := range lt {
			acc ^= exp[lt[i]]
			lt[i] += st[i]
			if lt[i] >= nf {
				lt[i] -= nf
			}
		}
		if acc == 0 {
			pos = append(pos, c.degToBit(d))
			if len(pos) == degS {
				break
			}
		}
	}
	if len(pos) != degS {
		return nil
	}
	return pos
}
