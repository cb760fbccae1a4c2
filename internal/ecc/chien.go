package ecc

import "math/bits"

// Root finding for the error locator.
//
// The error locator σ(x) from Berlekamp–Massey has roots α^{-d} where d is
// the degree of an errored codeword term. The reference search
// (chienSearchRef, kept in export_test.go) evaluates σ at every candidate
// root with PolyEval — O(N·deg σ) full GF multiplies. roots replaces it on
// the decode path, with a cost that follows deg σ:
//
//   - deg σ == 1: solved directly from log σ₁ (chienDeg1).
//   - deg σ == 2: the affine substitution x = (σ₁/σ₂)y reduces σ to
//     y² + y = σ₂/σ₁², one lookup in the per-code quadratic root table
//     (chienQuad).
//   - deg σ ∈ {3, 4}: Berlekamp, Rumsey and Solomon's affine method turns
//     the locator into y⁴ + p·y² + q·y = v, whose left side is GF(2)-linear
//     in y, so its roots are one m×m linear system over GF(2) (chienQuartic,
//     affineRoots).
//   - deg σ >= 5: the erasure probe first, when the caller has suspects;
//     otherwise the incremental Chien scan, which divides each root out of
//     σ as it finds it and stops once the quotient is a quartic, solved as
//     above (chienScan).
//
// Every path gives the reference's verdict: nil unless exactly deg σ
// distinct roots land inside the shortened window.

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

// roots returns the codeword bit positions of σ's roots, or nil unless
// exactly deg σ distinct roots lie in the shortened window. A locator
// longer than T is never correctable. erasures are the caller's suspected
// positions (see DecodeWithErasures); they are probed only where they can
// replace a scan.
func (c *Code) roots(s *Scratch, sigma []uint32, erasures []int) []int {
	switch deg := len(sigma) - 1; {
	case deg > c.T:
		return nil
	case deg == 0:
		return s.pos[:0]
	case deg == 1:
		return c.chienDeg1(s, sigma)
	case deg == 2:
		return c.chienQuad(s, sigma)
	case deg <= 4:
		return c.chienQuartic(sigma, s.pos[:0], -1)
	}
	if pos := c.probe(s, sigma, erasures); pos != nil {
		return pos
	}
	return c.chienScan(s, sigma)
}

// probe evaluates σ at the suspected positions and returns them when they
// hold all deg σ roots, nil otherwise. Candidates must be distinct;
// out-of-range entries are skipped.
func (c *Code) probe(s *Scratch, sigma []uint32, erasures []int) []int {
	degS := len(sigma) - 1
	if len(erasures) < degS {
		return nil
	}
	f := c.F
	pos := s.pos[:0]
	for _, p := range erasures {
		if p < 0 || p >= c.N {
			continue
		}
		// Bit p is term degree d = N-1-p; its root is α^{-d}.
		if f.PolyEval(sigma, f.Alpha((f.N-(c.N-1-p))%f.N)) == 0 {
			if pos = append(pos, p); len(pos) == degS {
				return pos
			}
		}
	}
	return nil
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
	return append(s.pos[:0], b1, b2)
}

// chienQuartic solves σ of degree 3 or 4 without a scan and appends the
// bit positions of its roots to pos. It works on the reciprocal
// λ(z) = z^deg·σ(1/z), whose roots are the locators z = α^d themselves:
//
//   - deg 3, λ = z³ + az² + bz + c: (z+a)·λ = z⁴ + (a²+b)z² + (ab+c)z + ac
//     has no cubic term. Its roots are λ's and a, which is discarded.
//   - deg 4 with a = 0: λ = z⁴ + bz² + cz + e is already affine.
//   - deg 4, λ = z⁴ + az³ + bz² + cz + e: z = w + k with k² = c/a kills
//     the linear term, leaving w⁴ + aw³ + (ak+b)w² + λ(k); w = 1/y then
//     gives y⁴ + ((ak+b)/λ(k))y² + (a/λ(k))y = 1/λ(k). λ(k) = 0 means k
//     is a repeated root.
//
// Every root's degree d must satisfy after < d < N; chienScan passes the
// last candidate it scanned, so a root it already divided out (a repeated
// root of σ) is refused. Returns nil unless all deg σ roots are distinct
// and qualify.
func (c *Code) chienQuartic(sigma []uint32, pos []int, after int) []int {
	f := c.F
	var z [4]uint32
	a, b, cc := sigma[1], sigma[2], sigma[3]
	n := 0
	switch {
	case len(sigma) == 4:
		n = c.affineRoots(f.Mul(a, a)^b, f.Mul(a, b)^cc, f.Mul(a, cc), &z)
		if n != 4 {
			return nil
		}
		n = 0
		for _, r := range z {
			if r != a {
				z[n] = r
				n++
			}
		}
	case a == 0:
		n = c.affineRoots(b, cc, sigma[4], &z)
	default:
		k := f.sqrt(f.Div(cc, a))
		k2 := f.Mul(k, k)
		lk := f.Mul(k2, k2) ^ f.Mul(a, f.Mul(k2, k)) ^ f.Mul(b, k2) ^ f.Mul(cc, k) ^ sigma[4]
		if lk == 0 {
			return nil
		}
		inv := f.Inv(lk)
		n = c.affineRoots(f.Mul(f.Mul(a, k)^b, inv), f.Mul(a, inv), inv, &z)
		for i := range z[:n] {
			z[i] = f.Inv(z[i]) ^ k
		}
	}
	if n != len(sigma)-1 {
		return nil
	}
	for _, r := range z[:n] {
		d := f.Log(r)
		if d <= after || d >= c.N {
			return nil
		}
		pos = append(pos, c.N-1-d)
	}
	return pos
}

// affineRoots solves y⁴ + p·y² + q·y = v over GF(2^m), writes the solutions
// to z and returns how many there are. Squaring is GF(2)-linear, so the
// left side is a linear map of y's m bits: the columns are its images of
// the basis elements, and Gaussian elimination over them yields one
// particular solution and the kernel. The kernel is the roots of a
// degree-4 polynomial, so it has at most four elements and the solution
// count is 0, 1, 2 or 4.
func (c *Code) affineRoots(p, q, v uint32, z *[4]uint32) int {
	f := c.F
	// piv[t] is a reduced column whose top set bit is t; comb[t] the set of
	// basis elements (bits of y) whose images sum to it.
	var piv, comb [16]uint32
	var ker [2]uint32
	nk := 0
	for i := 0; i < f.M; i++ {
		y := uint32(1) << uint(i)
		y2 := f.Mul(y, y)
		col, cm := f.Mul(y2, y2)^f.Mul(p, y2)^f.Mul(q, y), y
		for col != 0 {
			t := bits.Len32(col) - 1
			if piv[t] == 0 {
				piv[t], comb[t] = col, cm
				break
			}
			col, cm = col^piv[t], cm^comb[t]
		}
		if col == 0 {
			ker[nk] = cm
			nk++
		}
	}
	var y0 uint32
	for v != 0 {
		t := bits.Len32(v) - 1
		if piv[t] == 0 {
			return 0
		}
		v, y0 = v^piv[t], y0^comb[t]
	}
	z[0] = y0
	n := 1
	for _, k := range ker[:nk] {
		for i := 0; i < n; i++ {
			z[n+i] = z[i] ^ k
		}
		n *= 2
	}
	return n
}

// chienTerms loads the nonzero coefficients q_j (j >= 1) of q into the
// scratch's parallel log/step arrays for the incremental scan from
// candidate d0: lt[i] is the log of the term q_j·α^{-j·d0} and advances by
// st[i] = |F*| - j per candidate.
func (c *Code) chienTerms(s *Scratch, q []uint32, d0 int) (lt, st []int32) {
	f := c.F
	nf := int32(f.N)
	d0 %= f.N
	nz := 0
	var jd int32 // j·d0 mod |F*|, stepped without a division
	for j := 1; j < len(q); j++ {
		if jd += int32(d0); jd >= nf {
			jd -= nf
		}
		if q[j] == 0 {
			continue
		}
		l := f.log[q[j]] - jd
		if l < 0 {
			l += nf
		}
		s.chienLT[nz], s.chienST[nz] = l, nf-int32(j)
		nz++
	}
	return s.chienLT[:nz], s.chienST[:nz]
}

// chienScan finds the roots of σ, deg σ >= 5, by the incremental Chien
// scan: each nonzero term q_j·α^{-jd} stays in the log domain, so stepping
// d → d+1 costs one add, one conditional wrap, one exp-table load and one
// xor per term, all terms independent. Each root found is divided out,
// q ← q/(1 + α^d·x), so the terms thin as the scan goes; once the
// quotient is a quartic, chienQuartic solves it, and its roots must lie
// beyond the last candidate scanned.
func (c *Code) chienScan(s *Scratch, sigma []uint32) []int {
	f := c.F
	exp := f.exp
	nf := int32(f.N)
	q := s.quo[:len(sigma)]
	copy(q, sigma)
	lt, st := c.chienTerms(s, q, 0)
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
		if acc != 0 {
			continue
		}
		pos = append(pos, c.N-1-d)
		// q = (1 + α^d·x)·q': q'_j = q_j + α^d·q'_{j-1}.
		for j := 1; j < len(q)-1; j++ {
			q[j] ^= f.Mul(exp[d], q[j-1])
		}
		if q = q[:len(q)-1]; len(q) == 5 {
			return c.chienQuartic(q, pos, d)
		}
		lt, st = c.chienTerms(s, q, d+1)
	}
	return nil
}
