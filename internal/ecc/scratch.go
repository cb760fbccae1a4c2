package ecc

// Scratch holds every mutable buffer the codec needs during encode, check,
// and decode: the LFSR division register, the packed remainder the
// syndromes are evaluated over, the syndrome vector, the Berlekamp–Massey
// sigma double buffer and B polynomial, and the Chien-search position
// list. Scratches are owned by a per-Code sync.Pool and sized at
// construction from the code's geometry, so the public entry points (Check,
// EncodeInto, EncodeSectors, Decode) run without heap allocations; callers
// never see a Scratch directly.
type Scratch struct {
	reg   []uint64 // LFSR division register, nw words
	rem   []byte   // packed remainder, ParityBytes() long
	syn   []uint32 // syndromes S_1..S_2T (1-indexed; slot 0 unused)
	sigA  []uint32 // sigma double buffer A (cap 2T+2, see berlekampMassey)
	sigB  []uint32 // sigma double buffer B
	bpoly []uint32 // Berlekamp–Massey previous-sigma polynomial
	pos   []int    // Chien search error positions, cap T

	// Incremental Chien term state (chienLarge): per nonzero σ coefficient,
	// the running log of the term and its per-candidate log step. The
	// correction check (corrected) reuses them, one entry per flipped bit.
	chienLT []int32
	chienST []int32
}

func (c *Code) newScratch() *Scratch {
	return &Scratch{
		reg:     make([]uint64, c.nw),
		rem:     make([]byte, c.ParityBytes()),
		syn:     make([]uint32, 2*c.T+1),
		sigA:    make([]uint32, 2*c.T+2),
		sigB:    make([]uint32, 2*c.T+2),
		bpoly:   make([]uint32, 2*c.T+2),
		pos:     make([]int, 0, c.T),
		chienLT: make([]int32, c.T+1),
		chienST: make([]int32, c.T+1),
	}
}

// getScratch draws a scratch from the pool; pairing every get with a
// putScratch is what keeps the hot paths allocation-free under churn.
func (c *Code) getScratch() *Scratch { return c.pool.Get().(*Scratch) }

func (c *Code) putScratch(s *Scratch) { c.pool.Put(s) }
