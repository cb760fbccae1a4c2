package ecc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// ErrUncorrectable is returned by Decode when the error pattern exceeds the
// code's correction capability in a detectable way.
var ErrUncorrectable = errors.New("ecc: uncorrectable error pattern")

// Code is a binary BCH code over GF(2^m), shortened to k data bits, with
// designed correction capability t. Codewords are systematic: k data bits
// followed by r parity bits, n = k + r <= 2^m - 1.
//
// Encode/EncodeInto, Check, and Decode are safe for concurrent use: all
// mutable working state lives in pooled Scratch buffers, and the clean-read
// fast path (Check, EncodeInto) runs without heap allocations.
type Code struct {
	F *Field
	K int // data bits
	R int // parity bits (degree of the generator polynomial)
	N int // codeword bits, K + R
	T int // designed correction capability in bits

	nw    int      // words per left-aligned R-bit register (see runLFSR)
	gLow  []uint64 // generator minus the x^R term, left-aligned
	slice []uint64 // 8 slicing tables of 256 rows of nw words (buildTables)

	// Byte-wise syndrome evaluation tables: for the j-th odd syndrome index
	// i = 2j+1, synTbl[j][b] is the contribution of input byte b to S_i,
	// and synUnpad[j] = α^{-i·(8·ParityBytes()−R)} removes the pad bits'
	// shift from a Horner pass over the packed remainder. Together they turn
	// each odd syndrome into O(R/8) table lookups; even syndromes follow
	// from S_2i = S_i².
	synTbl   [][256]uint32
	synUnpad []uint32

	// synLo/synHi split the loop-carried multiply acc·α^{8i} of the
	// syndrome Horner recurrence into two independent table loads
	// (GF multiplication by a constant is GF(2)-linear in the other
	// operand): synLo[j][b] = b·α^{8i} for the low accumulator byte,
	// synHi[j][b] = (b<<8)·α^{8i} for the high byte(s).
	synLo [][256]uint32
	synHi [][256]uint32

	// qrt[v] solves z² + z = v for the deg σ == 2 Chien solver
	// (noQuadRoot when trace(v) = 1 and no solution exists).
	qrt []uint32

	// xpow[j·nw:(j+1)·nw] is x^{8j} mod g, left-aligned, for 8j < N: the
	// decoder checks a correction against the remainder with it (fixes).
	xpow []uint64

	pool sync.Pool // *Scratch, feeds the zero-allocation fast paths
}

// NewCode constructs a BCH code over GF(2^m) protecting dataBits of payload
// with correction capability t. dataBits must be a positive multiple of 8.
// It returns an error if the resulting codeword would not fit in 2^m - 1
// bits.
func NewCode(m, dataBits, t int) (*Code, error) {
	if dataBits <= 0 || dataBits%8 != 0 {
		return nil, fmt.Errorf("ecc: dataBits %d must be a positive multiple of 8", dataBits)
	}
	if t < 1 {
		return nil, fmt.Errorf("ecc: t must be >= 1, got %d", t)
	}
	f := NewField(m)
	gen, err := generatorPoly(f, t)
	if err != nil {
		return nil, err
	}
	r := polyDegree(gen)
	n := dataBits + r
	if n > f.N {
		return nil, fmt.Errorf("ecc: codeword %d bits exceeds 2^%d-1 = %d", n, m, f.N)
	}
	c := &Code{F: f, K: dataBits, R: r, N: n, T: t}
	c.nw = (r + 63) / 64
	pad := 64*c.nw - r
	c.gLow = make([]uint64, c.nw)
	for d := 0; d < r; d++ { // gen's bit r (the x^R term) is dropped
		if gen[d/64]>>uint(d%64)&1 != 0 {
			c.gLow[(pad+d)/64] |= 1 << uint((pad+d)%64)
		}
	}
	c.buildTables()
	c.buildPowTable()
	c.buildSyndromeTables()
	c.buildQuadTable()
	c.pool.New = func() any { return c.newScratch() }
	return c, nil
}

// ParityBytes returns the number of bytes needed to store the parity.
func (c *Code) ParityBytes() int { return (c.R + 7) / 8 }

// --- generator polynomial construction -----------------------------------

// polyDegree returns the degree of a GF(2) polynomial stored as a bitset.
func polyDegree(p []uint64) int {
	for w := len(p) - 1; w >= 0; w-- {
		if p[w] != 0 {
			for b := 63; b >= 0; b-- {
				if p[w]&(1<<uint(b)) != 0 {
					return 64*w + b
				}
			}
		}
	}
	return -1
}

// polyMulGF2 multiplies two GF(2) polynomials (bitsets).
func polyMulGF2(a, b []uint64) []uint64 {
	da, db := polyDegree(a), polyDegree(b)
	if da < 0 || db < 0 {
		return []uint64{0}
	}
	out := make([]uint64, (da+db)/64+1)
	for i := 0; i <= da; i++ {
		if a[i/64]&(1<<uint(i%64)) == 0 {
			continue
		}
		for j := 0; j <= db; j++ {
			if b[j/64]&(1<<uint(j%64)) != 0 {
				k := i + j
				out[k/64] ^= 1 << uint(k%64)
			}
		}
	}
	return out
}

// generatorPoly computes g(x) = lcm of the minimal polynomials of
// α^1 .. α^2t, via cyclotomic cosets mod 2^m - 1.
func generatorPoly(f *Field, t int) ([]uint64, error) {
	covered := make(map[int]bool)
	g := []uint64{1}
	for i := 1; i <= 2*t; i++ {
		if covered[i] {
			continue
		}
		// Cyclotomic coset of i: {i, 2i, 4i, ...} mod N.
		coset := []int{}
		j := i
		for !covered[j] {
			covered[j] = true
			coset = append(coset, j)
			j = (j * 2) % f.N
		}
		mp, err := minimalPoly(f, coset)
		if err != nil {
			return nil, err
		}
		g = polyMulGF2(g, mp)
	}
	return g, nil
}

// minimalPoly returns Π_{j in coset} (x + α^j) as a GF(2) bitset. The
// product provably has binary coefficients; this is verified defensively.
func minimalPoly(f *Field, coset []int) ([]uint64, error) {
	// coef[i] is the GF(2^m) coefficient of x^i.
	coef := make([]uint32, 1, len(coset)+1)
	coef[0] = 1
	for _, j := range coset {
		root := f.Alpha(j)
		// Multiply coef by (x + root).
		next := make([]uint32, len(coef)+1)
		for i, cc := range coef {
			next[i+1] ^= cc            // x * coef
			next[i] ^= f.Mul(cc, root) // root * coef
		}
		coef = next
	}
	out := make([]uint64, len(coef)/64+1)
	for i, cc := range coef {
		switch cc {
		case 0:
		case 1:
			out[i/64] |= 1 << uint(i%64)
		default:
			return nil, fmt.Errorf("ecc: minimal polynomial coefficient %#x not in GF(2)", cc)
		}
	}
	return out, nil
}

// --- LFSR encoding --------------------------------------------------------
//
// The R-bit division register is kept left-aligned in nw words: the
// coefficient of x^d sits at bit pad+d of the 64·nw-bit string, pad =
// 64·nw − R, so x^(R-1) is the top bit of the last word and the low pad
// bits of word 0 stay zero. The bits about to shift out are then always the
// top of the last word, and the packed parity is the words written
// big-endian, last word first.

// stepBit advances the division register by one input bit (0 or 1):
// reg ← (reg·x + in·x^R) mod g. It is the bit-serial oracle the slicing
// tables are built from.
func (c *Code) stepBit(reg []uint64, in uint64) {
	fb := reg[len(reg)-1]>>63 ^ in
	for w := len(reg) - 1; w > 0; w-- {
		reg[w] = reg[w]<<1 | reg[w-1]>>63
	}
	reg[0] <<= 1
	if fb == 1 {
		for w := range reg {
			reg[w] ^= c.gLow[w]
		}
	}
}

// buildTables precomputes the eight slicing tables: row (k, b) of c.slice
// is b·x^{8k}·x^R mod g, left-aligned, so one table lookup per input byte
// folds eight bytes into the register at once. The rows for single-bit b
// are x^j·x^R mod g for j = 0..63, read off stepBit; the rest follow by
// linearity.
func (c *Code) buildTables() {
	nw := c.nw
	c.slice = make([]uint64, 8*256*nw)
	row := func(k, b int) []uint64 { return c.slice[(k*256+b)*nw : (k*256+b+1)*nw] }
	e := make([]uint64, nw)
	c.stepBit(e, 1) // x^R mod g
	for j := 0; j < 64; j++ {
		copy(row(j/8, 1<<uint(j%8)), e)
		c.stepBit(e, 0)
	}
	for k := 0; k < 8; k++ {
		for b := 3; b < 256; b++ {
			if b&(b-1) == 0 {
				continue
			}
			dst, lo, rest := row(k, b), row(k, b&-b), row(k, b&(b-1))
			for w := range dst {
				dst[w] = lo[w] ^ rest[w]
			}
		}
	}
}

// runLFSR resets reg and divides the data polynomial by the generator,
// leaving data·x^R mod g (the parity image) in reg. Eight data bytes at a
// time XOR into the top word; the register shifts up one word and takes
// the eight table rows that word's bytes select.
func (c *Code) runLFSR(reg []uint64, data []byte) {
	nw := c.nw
	reg = reg[:nw]
	clear(reg)
	tb := c.slice
	for ; len(data) >= 8; data = data[8:] {
		fb := reg[nw-1] ^ binary.BigEndian.Uint64(data)
		t0 := tb[(0*256+int(fb&0xff))*nw:][:nw]
		t1 := tb[(1*256+int(fb>>8&0xff))*nw:][:nw]
		t2 := tb[(2*256+int(fb>>16&0xff))*nw:][:nw]
		t3 := tb[(3*256+int(fb>>24&0xff))*nw:][:nw]
		t4 := tb[(4*256+int(fb>>32&0xff))*nw:][:nw]
		t5 := tb[(5*256+int(fb>>40&0xff))*nw:][:nw]
		t6 := tb[(6*256+int(fb>>48&0xff))*nw:][:nw]
		t7 := tb[(7*256+int(fb>>56))*nw:][:nw]
		var prev uint64 // reg[w-1] before this step
		for w := range reg {
			cur := reg[w]
			reg[w] = prev ^ t0[w] ^ t1[w] ^ t2[w] ^ t3[w] ^ t4[w] ^ t5[w] ^ t6[w] ^ t7[w]
			prev = cur
		}
	}
	for _, b := range data { // a tail shorter than a word, one byte at a time
		t0 := tb[int(byte(reg[nw-1]>>56)^b)*nw:][:nw]
		var prev uint64
		for w := range reg {
			cur := reg[w]
			reg[w] = cur<<8 | prev>>56 ^ t0[w]
			prev = cur
		}
	}
}

// packInto writes the register's top len(out) bytes over out, MSB first:
// parity bit R-1 is the MSB of out[0], and the pad bits come out zero.
func (c *Code) packInto(reg []uint64, out []byte) {
	for i := range out {
		out[i] = byte(reg[c.nw-1-i/8] >> (56 - 8*uint(i%8)))
	}
}

// remainder leaves in reg the received word's remainder mod g — the
// computed parity XOR the received parity, pad bits masked — and reports
// whether it is zero, i.e. whether data+parity is a codeword.
func (c *Code) remainder(reg []uint64, data, parity []byte) bool {
	c.runLFSR(reg, data)
	for i, b := range parity {
		reg[c.nw-1-i/8] ^= uint64(b) << (56 - 8*uint(i%8))
	}
	reg[0] &= ^uint64(0) << uint(64*c.nw-c.R) // the pad bits
	var or uint64
	for _, w := range reg {
		or |= w
	}
	return or == 0
}

// EncodeInto computes the parity for data into the caller-supplied parity
// buffer. data must be exactly K/8 bytes and parity exactly ParityBytes()
// long; parity bit R-1 lands first (MSB of byte 0). It allocates nothing:
// the division register comes from the code's scratch pool.
func (c *Code) EncodeInto(data, parity []byte) error {
	if len(data) != c.K/8 {
		return fmt.Errorf("ecc: Encode wants %d data bytes, got %d", c.K/8, len(data))
	}
	if len(parity) != c.ParityBytes() {
		return fmt.Errorf("ecc: Encode wants %d parity bytes, got %d", c.ParityBytes(), len(parity))
	}
	s := c.getScratch()
	c.runLFSR(s.reg, data)
	c.packInto(s.reg, parity)
	c.putScratch(s)
	return nil
}

// EncodeSectors encodes raw[:dataBytes] as consecutive sectorSize-byte
// sectors, writing sector i's parity at raw[dataBytes+i*ParityBytes() :].
// This is the one per-sector encode loop shared by the ssd program path and
// the core re-encode (RegenS) path; it reuses a single pooled scratch across
// all sectors and allocates nothing.
func (c *Code) EncodeSectors(raw []byte, dataBytes, sectorSize int) error {
	if sectorSize <= 0 || dataBytes <= 0 || dataBytes%sectorSize != 0 {
		return fmt.Errorf("ecc: data bytes %d not a positive multiple of sector size %d", dataBytes, sectorSize)
	}
	if sectorSize*8 != c.K {
		return fmt.Errorf("ecc: sector size %d does not match code payload %d bits", sectorSize, c.K)
	}
	pb := c.ParityBytes()
	sectors := dataBytes / sectorSize
	if len(raw) < dataBytes+sectors*pb {
		return fmt.Errorf("ecc: raw buffer %d bytes, want >= %d for %d sectors", len(raw), dataBytes+sectors*pb, sectors)
	}
	s := c.getScratch()
	for sec := 0; sec < sectors; sec++ {
		c.runLFSR(s.reg, raw[sec*sectorSize:(sec+1)*sectorSize])
		c.packInto(s.reg, raw[dataBytes+sec*pb:dataBytes+(sec+1)*pb])
	}
	c.putScratch(s)
	return nil
}

// Check reports whether data+parity form a valid codeword. It is much
// cheaper than Decode, allocates nothing, and is the fast path for clean
// reads. The 8·ParityBytes()−R low bits of the last parity byte are
// padding outside the code: the flash flips them like any other bit, so
// they are masked out of the comparison.
func (c *Code) Check(data, parity []byte) bool {
	if len(data) != c.K/8 || len(parity) != c.ParityBytes() {
		return false
	}
	s := c.getScratch()
	ok := c.remainder(s.reg, data, parity)
	c.putScratch(s)
	return ok
}

// --- decoding -------------------------------------------------------------

// bitAt returns codeword bit index i (0 = highest-degree data bit) from the
// data/parity pair.
func bitAt(data, parity []byte, i, k int) uint32 {
	if i < k {
		return uint32(data[i/8]>>uint(7-i%8)) & 1
	}
	i -= k
	return uint32(parity[i/8]>>uint(7-i%8)) & 1
}

func flipBit(data, parity []byte, i, k int) {
	if i < k {
		data[i/8] ^= 1 << uint(7-i%8)
		return
	}
	i -= k
	parity[i/8] ^= 1 << uint(7-i%8)
}

// bmState is the Berlekamp–Massey recurrence carried from one syndrome
// round to the next. Its polynomials alias the scratch's sigA, sigB and
// bpoly buffers, whose capacity 2T+2 bounds len(B)+gap: gap only grows
// while the discrepancy is zero, and a length change resets it, so
// len(B)+gap never exceeds 2T+1.
type bmState struct {
	sigma, next, b []uint32 // σ, the update target, and B (σ at the last length change)
	l, gap, step   int      // LFSR length L, B's shift x^gap, syndromes consumed
	bd             uint32   // the discrepancy at the last length change
}

// bmReset starts the recurrence: σ = B = 1, L = 0, nothing consumed.
func (s *Scratch) bmReset() {
	s.bm = bmState{sigma: s.sigA[:1], next: s.sigB, b: s.bpoly[:1], gap: 1, bd: 1}
	s.bm.sigma[0], s.bm.b[0] = 1, 1
}

// locator returns σ so far with its trailing zero coefficients trimmed, so
// len-1 is its degree. It aliases the scratch.
func (bm *bmState) locator() []uint32 {
	sigma := bm.sigma
	for len(sigma) > 1 && sigma[len(sigma)-1] == 0 {
		sigma = sigma[:len(sigma)-1]
	}
	return sigma
}

// bmAdvance carries the recurrence in s.bm through syndrome S_upto of s.syn
// and returns the LFSR length L. Stopping and resuming leaves σ exactly as
// one uninterrupted run over the same syndromes would.
func (c *Code) bmAdvance(s *Scratch, upto int) int {
	f := c.F
	S := s.syn
	bm := &s.bm
	sigma, next, B := bm.sigma, bm.next, bm.b
	L, mGap, b := bm.l, bm.gap, bm.bd
	for i := bm.step; i < upto; i++ {
		// Discrepancy δ = S[i+1] + Σ_{j=1..L} σ_j S[i+1-j].
		delta := S[i+1]
		for j := 1; j <= L && j < len(sigma); j++ {
			if i+1-j >= 1 {
				delta ^= f.Mul(sigma[j], S[i+1-j])
			}
		}
		if delta == 0 {
			mGap++
			continue
		}
		// σ' = σ - (δ/b)·x^mGap·B
		scale := f.Div(delta, b)
		nlen := len(sigma)
		if lb := len(B) + mGap; lb > nlen {
			nlen = lb
		}
		out := next[:nlen]
		copy(out, sigma)
		for j := len(sigma); j < nlen; j++ {
			out[j] = 0
		}
		for j, bc := range B {
			out[j+mGap] ^= f.Mul(scale, bc)
		}
		if 2*L <= i {
			B = B[:len(sigma)]
			copy(B, sigma)
			b = delta
			L = i + 1 - L
			mGap = 1
		} else {
			mGap++
		}
		sigma, next = out, sigma[:cap(sigma)]
	}
	*bm = bmState{sigma: sigma, next: next, b: B, l: L, gap: mGap, step: upto, bd: b}
	return L
}

// Decode corrects data and parity in place. It returns the number of bits
// corrected, or ErrUncorrectable if the pattern exceeds the code's power in
// a detectable way. (Patterns beyond t bits may occasionally miscorrect, as
// with any bounded-distance decoder; the analytic model accounts for this as
// an uncorrectable-page event.) The clean-read fast path allocates nothing;
// the correction path draws all working state from the scratch pool.
func (c *Code) Decode(data, parity []byte) (int, error) {
	s := c.getScratch()
	defer c.putScratch(s)
	return c.decode(s, data, parity, nil)
}

// DecodeWithErasures corrects data and parity in place like Decode, but
// first tries the caller's candidate error positions — codeword bit
// indices the caller already suspects (torn pages from recovery, grown
// stuck columns from wear tracking). σ still comes from the syndromes via
// Berlekamp–Massey, so corrections are byte-identical to Decode's; the
// erasure hint only replaces a Chien scan (locators of degree 5 and up)
// with deg σ evaluations of σ at the suspected positions. If the actual
// errors are not confined to the candidates, the scan runs as in Decode,
// so a wrong or stale hint costs nothing but the probe. Candidates must
// be distinct; out-of-range entries are ignored.
func (c *Code) DecodeWithErasures(data, parity []byte, erasures []int) (int, error) {
	s := c.getScratch()
	defer c.putScratch(s)
	return c.decode(s, data, parity, erasures)
}

// decode is the one decode body, and its work follows the errors present.
// The sliced LFSR yields the remainder: zero is a clean read. Otherwise the
// odd syndromes are evaluated four at a time, and after each round of w
// odd syndromes Berlekamp–Massey is carried through S_2w. While its length
// L is below w, σ may already be the whole locator: its roots are found
// and checked against the remainder (fixes), and the flips are made only
// if they verify. A verified correction of L < w < T bits is the one the
// full decoder returns: the minimum distance is at least 2T+1, so the
// received word has one codeword within T. L == w is the common outcome
// when more than w bits are in error, so no attempt is made there. After
// the last round the full-length σ decides, exactly as the reference
// decoder does, including the flips it leaves behind when the check fails.
func (c *Code) decode(s *Scratch, data, parity []byte, erasures []int) (int, error) {
	if len(data) != c.K/8 {
		return 0, fmt.Errorf("ecc: Decode wants %d data bytes, got %d", c.K/8, len(data))
	}
	if len(parity) != c.ParityBytes() {
		return 0, fmt.Errorf("ecc: Decode wants %d parity bytes, got %d", c.ParityBytes(), len(parity))
	}
	if c.remainder(s.reg, data, parity) {
		return 0, nil
	}
	c.packInto(s.reg, s.rem)
	s.bmReset()
	for w := 0; w < c.T; {
		w = c.syndromeRound(s.syn, s.rem, w)
		if L := c.bmAdvance(s, 2*w); w == c.T || L >= w {
			continue
		}
		if pos := c.roots(s, s.bm.locator(), erasures); pos != nil && c.fixes(s, pos) {
			for _, p := range pos {
				flipBit(data, parity, p, c.K)
			}
			return len(pos), nil
		}
	}
	pos := c.roots(s, s.bm.locator(), erasures)
	if pos == nil {
		return 0, ErrUncorrectable
	}
	for _, p := range pos {
		flipBit(data, parity, p, c.K)
	}
	if !c.fixes(s, pos) {
		return 0, ErrUncorrectable
	}
	return len(pos), nil
}

// fixes reports whether flipping the bits at pos turns the received word
// into a codeword. remainder left r mod g in s.reg, and the flips add
// e = Σ_k x^{d_k} (d_k the degree of flipped bit k), so the result is a
// codeword exactly when e mod g equals that remainder. Each x^d mod g is
// the table row x^{8⌊d/8⌋} mod g shifted up d mod 8 bits, the bits that
// overflow x^{R-1} folded back with one slicing-table row: nw words per
// flipped bit. It reads neither data nor parity, so the check may run
// before the flips.
func (c *Code) fixes(s *Scratch, pos []int) bool {
	nw := c.nw
	acc := s.acc[:nw]
	clear(acc)
	for _, p := range pos {
		d := c.N - 1 - p
		row := c.xpow[(d/8)*nw:][:nw]
		r := uint(d % 8)
		fold := c.slice[int(row[nw-1]>>(64-r))*nw:][:nw] // row 0 is zero when r == 0
		var prev uint64
		for w, cur := range row {
			acc[w] ^= cur<<r | prev>>(64-r) ^ fold[w]
			prev = cur
		}
	}
	for w, v := range acc {
		if v != s.reg[w] {
			return false
		}
	}
	return true
}

// buildPowTable precomputes c.xpow: row j is x^{8j} mod g, left-aligned
// like the division register, for 8j < N. Each row is the last one times
// x^8: shifted up a byte, with the byte that leaves the register folded
// back by its first slicing-table row (b·x^R mod g). ⌈N/8⌉·nw words, about
// 36 KiB at tiredness level 0 and 0.7 MiB at level 2.
func (c *Code) buildPowTable() {
	nw := c.nw
	rows := (c.N + 7) / 8
	c.xpow = make([]uint64, rows*nw)
	pad := 64*nw - c.R
	c.xpow[pad/64] = 1 << uint(pad%64) // x^0
	for j := 1; j < rows; j++ {
		last, row := c.xpow[(j-1)*nw:][:nw], c.xpow[j*nw:][:nw]
		fold := c.slice[int(last[nw-1]>>56)*nw:][:nw]
		var prev uint64
		for w, cur := range last {
			row[w] = cur<<8 | prev>>56 ^ fold[w]
			prev = cur
		}
	}
}
