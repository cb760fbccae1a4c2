package ecc

import "bytes"

// Test-only exports: the external test package (ecc_test) runs the
// differential battery against the reference kernels below, which are
// deliberately not part of the public API. They are the codec as it stood
// before the word-sliced LFSR: a byte-at-a-time LFSR with a bit-by-bit
// parity pack, syndromes by Horner over the whole N-bit codeword, the
// per-candidate PolyEval Chien search, and a final full Check of the
// corrected word. The production path must match them byte for byte.

// ChienSmallMaxForTest is the degree bound of the stack-array kernel, so
// the battery can pick error weights that land in every kernel.
const ChienSmallMaxForTest = chienSmallMax

// refRunLFSR divides data by the generator one byte at a time with the
// first slicing table (T_0[b] = b·x^R mod g): the register's top byte is
// the one about to shift out.
func (c *Code) refRunLFSR(reg []uint64, data []byte) {
	clear(reg)
	nw := c.nw
	for _, in := range data {
		fb := in ^ byte(reg[nw-1]>>56)
		for w := nw - 1; w > 0; w-- {
			reg[w] = reg[w]<<8 | reg[w-1]>>56
		}
		reg[0] <<= 8
		for w, v := range c.slice[int(fb)*nw : (int(fb)+1)*nw] {
			reg[w] ^= v
		}
	}
}

// refPackParity converts the left-aligned register (coefficient of x^d at
// bit 64·nw−R+d) into MSB-first parity bytes, one bit at a time.
func (c *Code) refPackParity(reg []uint64, out []byte) {
	clear(out)
	pad := 64*c.nw - c.R
	for i := 0; i < c.R; i++ {
		at := pad + c.R - 1 - i // emit high-degree bits first
		if reg[at/64]>>uint(at%64)&1 != 0 {
			out[i/8] |= 1 << uint(7-i%8)
		}
	}
}

// refCheck recomputes the parity and compares it with the received parity,
// ignoring the pad bits of the last byte.
func (c *Code) refCheck(data, parity []byte) bool {
	reg := make([]uint64, c.nw)
	want := make([]byte, c.ParityBytes())
	c.refRunLFSR(reg, data)
	c.refPackParity(reg, want)
	last := len(parity) - 1
	mask := byte(0xff)
	if c.R%8 != 0 {
		mask <<= uint(8 - c.R%8)
	}
	return bytes.Equal(want[:last], parity[:last]) && (want[last]^parity[last])&mask == 0
}

// refSyndromesInto evaluates S_1..S_2T by byte-wise Horner over the whole
// codeword, data then parity, the final R%8 parity bits bit-serially.
// Reports whether every syndrome is zero.
func (c *Code) refSyndromesInto(S []uint32, data, parity []byte) bool {
	f := c.F
	pbFull := c.R / 8
	for j := 0; j < c.T; j++ {
		tbl, lo, hi := &c.synTbl[j], &c.synLo[j], &c.synHi[j]
		var acc uint32
		for _, b := range data {
			acc = lo[acc&0xff] ^ hi[(acc>>8)&0xff] ^ tbl[b]
		}
		for _, b := range parity[:pbFull] {
			acc = lo[acc&0xff] ^ hi[(acc>>8)&0xff] ^ tbl[b]
		}
		for k := 0; k < c.R%8; k++ {
			acc = f.Mul(acc, f.Alpha(2*j+1)) ^ uint32(parity[pbFull]>>uint(7-k))&1
		}
		S[2*j+1] = acc
	}
	for i := 2; i <= 2*c.T; i += 2 {
		S[i] = f.Mul(S[i/2], S[i/2])
	}
	for i := 1; i <= 2*c.T; i++ {
		if S[i] != 0 {
			return false
		}
	}
	return true
}

// chienSearchRef is the reference root search: per-candidate PolyEval over
// the shortened window. Same contract as chienSearch.
func (c *Code) chienSearchRef(s *Scratch, sigma []uint32) []int {
	f := c.F
	degS := len(sigma) - 1
	pos := s.pos[:0]
	if degS == 0 {
		return pos
	}
	if degS == 1 {
		bit := c.degToBit(f.Log(sigma[1]))
		if bit < 0 {
			return nil
		}
		return append(pos, bit)
	}
	for d := 0; d < c.N; d++ {
		l := (f.N - d) % f.N
		if f.PolyEval(sigma, f.Alpha(l)) == 0 {
			pos = append(pos, c.degToBit(d))
			if len(pos) == degS {
				break // deg σ roots found; σ has no more
			}
		}
	}
	if len(pos) != degS {
		return nil
	}
	return pos
}

// EncodeReference computes data's parity with the byte-wise reference LFSR.
func (c *Code) EncodeReference(data []byte) []byte {
	reg := make([]uint64, c.nw)
	out := make([]byte, c.ParityBytes())
	c.refRunLFSR(reg, data)
	c.refPackParity(reg, out)
	return out
}

// EncodeBitSerial computes data's parity with stepBit, one data bit per
// step: the oracle the slicing tables are built from.
func (c *Code) EncodeBitSerial(data []byte) []byte {
	reg := make([]uint64, c.nw)
	for _, b := range data {
		for k := 7; k >= 0; k-- {
			c.stepBit(reg, uint64(b>>uint(k))&1)
		}
	}
	out := make([]byte, c.ParityBytes())
	c.refPackParity(reg, out)
	return out
}

// CheckReference is Check on the reference kernels.
func (c *Code) CheckReference(data, parity []byte) bool { return c.refCheck(data, parity) }

// SyndromesReference is Syndromes by Horner over the whole codeword.
func (c *Code) SyndromesReference(data, parity []byte) ([]uint32, bool) {
	S := make([]uint32, 2*c.T+1)
	zero := c.refSyndromesInto(S, data, parity)
	return S, zero
}

// DecodeReference is DecodeWithErasures on the reference kernels (nil
// erasures for plain Decode): Check, full-codeword syndromes,
// Berlekamp–Massey, the erasure probe or chienSearchRef, the flips, and a
// final Check of the corrected word. Decode and DecodeWithErasures must
// leave the same bytes and return the same count and error on every input.
func (c *Code) DecodeReference(data, parity []byte, erasures []int) (int, error) {
	if len(data) != c.K/8 || len(parity) != c.ParityBytes() {
		return 0, ErrUncorrectable
	}
	if c.refCheck(data, parity) {
		return 0, nil
	}
	s := c.getScratch()
	defer c.putScratch(s)
	if c.refSyndromesInto(s.syn, data, parity) {
		return 0, nil
	}
	sigma := c.berlekampMassey(s)
	degS := len(sigma) - 1
	if degS > c.T {
		return 0, ErrUncorrectable
	}
	f := c.F
	pos := s.pos[:0]
	if degS > 0 && len(erasures) >= degS {
		for _, p := range erasures {
			if p < 0 || p >= c.N {
				continue
			}
			if f.PolyEval(sigma, f.Alpha((f.N-(c.N-1-p))%f.N)) == 0 {
				pos = append(pos, p)
				if len(pos) == degS {
					break
				}
			}
		}
	}
	if len(pos) != degS {
		pos = c.chienSearchRef(s, sigma)
		if pos == nil {
			return 0, ErrUncorrectable
		}
	}
	for _, p := range pos {
		flipBit(data, parity, p, c.K)
	}
	if !c.refCheck(data, parity) {
		return 0, ErrUncorrectable
	}
	return len(pos), nil
}

// Encode is EncodeInto into a fresh parity buffer, for tests.
func (c *Code) Encode(data []byte) ([]byte, error) {
	parity := make([]byte, c.ParityBytes())
	if err := c.EncodeInto(data, parity); err != nil {
		return nil, err
	}
	return parity, nil
}
