package ecc

import "math/bits"

// Byte-wise syndrome evaluation.
//
// The bit-serial form of syndrome S_i is Horner over a polynomial's bits,
// highest degree first (SyndromesBitSerial runs it over all N codeword
// bits; Decode runs it over the R-bit remainder, see syndromeRound):
//
//	acc ← acc·α^i ⊕ bit
//
// Grouping eight bits, one input byte b (MSB first) advances the
// accumulator by
//
//	acc ← acc·α^{8i} ⊕ T_i[b],   T_i[b] = ⊕_{p: bit p of b set} α^{i·p}
//
// where p counts from the byte's LSB (processed last, so the MSB picks up
// α^{7i}). T_i is a 256-entry table per odd syndrome, built from each
// value's lowest set bit, so evaluation is one GF multiply and one table
// lookup per byte instead of eight multiplies.

// buildSyndromeTables precomputes synTbl/synUnpad plus the synLo/synHi
// stride-multiply split tables for the T odd syndromes: 3 KiB per odd
// syndrome (≈117 KiB at tiredness level 0, ≈1.1 MiB at level 2, ≈2.8 MiB
// at level 3), paid once in NewCode.
func (c *Code) buildSyndromeTables() {
	f := c.F
	pad := 8*c.ParityBytes() - c.R
	c.synTbl = make([][256]uint32, c.T)
	c.synUnpad = make([]uint32, c.T)
	c.synLo = make([][256]uint32, c.T)
	c.synHi = make([][256]uint32, c.T)
	for j := 0; j < c.T; j++ {
		i := 2*j + 1
		// pw[p] = α^{i·p}: byte bit p (0 = LSB) enters the Horner
		// recurrence p steps before the byte ends, so it picks up p more
		// multiplies by α^i.
		var pw [8]uint32
		for p := 0; p < 8; p++ {
			pw[p] = f.Alpha(i * p)
		}
		tbl := &c.synTbl[j]
		tbl[0] = 0
		for b := 1; b < 256; b++ {
			p := bits.TrailingZeros32(uint32(b))
			tbl[b] = tbl[b&(b-1)] ^ pw[p]
		}
		stride := f.Alpha(8 * i)
		c.synUnpad[j] = f.Alpha(-i * pad)
		// Multiplication by the constant stride is linear over GF(2), so
		// acc·stride = synLo[acc&0xff] ^ synHi[acc>>8]. loBase/hiBase hold
		// the per-bit products; bits at or above m are not field elements
		// and can never appear in an accumulator, so their entries stay 0
		// (the subset-xor chain below then fills unreachable indices with
		// harmless values).
		var loBase, hiBase [8]uint32
		for p := 0; p < 8; p++ {
			if v := uint32(1) << uint(p); int64(v) <= int64(f.N) {
				loBase[p] = f.Mul(v, stride)
			}
			if v := uint32(1) << uint(p+8); int64(v) <= int64(f.N) {
				hiBase[p] = f.Mul(v, stride)
			}
		}
		lo, hi := &c.synLo[j], &c.synHi[j]
		lo[0], hi[0] = 0, 0
		for b := 1; b < 256; b++ {
			p := bits.TrailingZeros32(uint32(b))
			lo[b] = lo[b&(b-1)] ^ loBase[p]
			hi[b] = hi[b&(b-1)] ^ hiBase[p]
		}
	}
}

// syndromesInto evaluates S_1..S_2T into S (length 2T+1, 1-indexed) from
// the remainder that remainder() left in s.reg: every syndrome round in
// turn, as Syndromes needs them all.
func (c *Code) syndromesInto(S []uint32, s *Scratch) {
	c.packInto(s.reg, s.rem)
	for j := 0; j < c.T; j = c.syndromeRound(S, s.rem, j) {
	}
}

// syndromeRound evaluates the odd syndromes S_{2j+1}, j0 <= j < w =
// min(j0+4, T), from the packed remainder rem, then the even syndromes
// S_{2j0+2}..S_{2w} they complete, and returns w. The received word is
// q·g + rem and g(α^i) = 0 for i <= 2T, so S_i = rem(α^i): a Horner pass
// over the ParityBytes() packed remainder bytes, not the N-bit codeword.
// The pass also runs over the zero pad bits at the end of the last byte,
// which multiplies each S_i by α^{i·pad}; synUnpad takes it back out. Even
// syndromes follow from S_2i = S_i² (binary BCH). Decode stops calling it
// once the syndromes so far have located the errors.
func (c *Code) syndromeRound(S []uint32, rem []byte, j0 int) int {
	f := c.F
	w := min(j0+4, c.T)
	if j := j0; w-j == 4 {
		// Four odd syndromes advance together per pass over the remainder:
		// the split tables turn each acc·α^{8i} into two independent loads,
		// and the four accumulator chains are independent of each other, so
		// the loads pipeline instead of serializing on one log/exp multiply
		// chain. The &0xff masks (accumulators fit in 2^m <= 2^16 bits) keep
		// every index in [0,256) without bounds checks.
		t0, t1, t2, t3 := &c.synTbl[j], &c.synTbl[j+1], &c.synTbl[j+2], &c.synTbl[j+3]
		l0, l1, l2, l3 := &c.synLo[j], &c.synLo[j+1], &c.synLo[j+2], &c.synLo[j+3]
		h0, h1, h2, h3 := &c.synHi[j], &c.synHi[j+1], &c.synHi[j+2], &c.synHi[j+3]
		var a0, a1, a2, a3 uint32
		for _, b := range rem {
			a0 = l0[a0&0xff] ^ h0[(a0>>8)&0xff] ^ t0[b]
			a1 = l1[a1&0xff] ^ h1[(a1>>8)&0xff] ^ t1[b]
			a2 = l2[a2&0xff] ^ h2[(a2>>8)&0xff] ^ t2[b]
			a3 = l3[a3&0xff] ^ h3[(a3>>8)&0xff] ^ t3[b]
		}
		S[2*j+1], S[2*j+3], S[2*j+5], S[2*j+7] = a0, a1, a2, a3
	} else {
		for ; j < w; j++ {
			tbl, lo, hi := &c.synTbl[j], &c.synLo[j], &c.synHi[j]
			var acc uint32
			for _, b := range rem {
				acc = lo[acc&0xff] ^ hi[(acc>>8)&0xff] ^ tbl[b]
			}
			S[2*j+1] = acc
		}
	}
	for j := j0; j < w; j++ {
		S[2*j+1] = f.Mul(S[2*j+1], c.synUnpad[j])
	}
	// S_{2j} = S_j² for binary codes; increasing order guarantees S_{i/2}
	// is final before S_i is derived.
	for i := 2*j0 + 2; i <= 2*w; i += 2 {
		half := S[i/2]
		S[i] = f.Mul(half, half)
	}
	return w
}

// Syndromes computes S_1..S_2T with the decoder's own path (sliced LFSR
// remainder, then syndromesInto) and reports whether all are zero, which
// holds exactly when data+parity is a codeword. The returned slice is
// 1-indexed (slot 0 unused). data must be K/8 bytes and parity
// ParityBytes() bytes, as for Decode.
func (c *Code) Syndromes(data, parity []byte) ([]uint32, bool) {
	S := make([]uint32, 2*c.T+1)
	s := c.getScratch()
	zero := c.remainder(s.reg, data, parity)
	if !zero {
		c.syndromesInto(S, s)
	}
	c.putScratch(s)
	return S, zero
}

// SyndromesBitSerial computes S_1..S_2T by the original bit-serial Horner
// recurrence, one GF multiply per codeword bit per odd syndrome. It is kept
// verbatim as the reference oracle for the table-driven path: the
// differential tests, the fuzz target, and the salperf -ecc speedup
// measurement all compare against it. Same contract as Syndromes.
func (c *Code) SyndromesBitSerial(data, parity []byte) ([]uint32, bool) {
	f := c.F
	S := make([]uint32, 2*c.T+1) // 1-indexed
	for i := 1; i <= 2*c.T; i += 2 {
		alphaI := f.Alpha(i)
		var acc uint32
		for bi := 0; bi < c.N; bi++ {
			acc = f.Mul(acc, alphaI) ^ bitAt(data, parity, bi, c.K)
		}
		S[i] = acc
	}
	for i := 2; i <= 2*c.T; i += 2 {
		half := S[i/2]
		S[i] = f.Mul(half, half)
	}
	for i := 1; i <= 2*c.T; i++ {
		if S[i] != 0 {
			return S, false
		}
	}
	return S, true
}
