package ecc

// Scratch holds every mutable buffer the codec needs during encode, check,
// and decode: the LFSR division register, the packed remainder the
// syndromes are evaluated over, the syndrome vector, the Berlekamp–Massey
// buffers and the state carried between syndrome rounds, the root
// position list and the correction check's accumulator. Scratches are
// owned by a per-Code sync.Pool and sized at construction from the code's
// geometry, so the public entry points (Check, EncodeInto, EncodeSectors,
// Decode) run without heap allocations; callers never see a Scratch
// directly.
type Scratch struct {
	reg   []uint64 // LFSR division register, nw words
	acc   []uint64 // Σ x^{d_k} mod g over the flips being checked (fixes), nw words
	rem   []byte   // packed remainder, ParityBytes() long
	syn   []uint32 // syndromes S_1..S_2T (1-indexed; slot 0 unused)
	sigA  []uint32 // sigma double buffer A (cap 2T+2, see bmState)
	sigB  []uint32 // sigma double buffer B
	bpoly []uint32 // Berlekamp–Massey previous-sigma polynomial
	bm    bmState  // the recurrence between syndrome rounds
	pos   []int    // error positions found by roots, cap T
	quo   []uint32 // σ with the scanned roots divided out (chienScan)

	// Incremental Chien term state (chienScan): per nonzero coefficient of
	// the quotient being scanned, the running log of the term and its
	// per-candidate log step.
	chienLT []int32
	chienST []int32
}

func (c *Code) newScratch() *Scratch {
	return &Scratch{
		reg:     make([]uint64, c.nw),
		acc:     make([]uint64, c.nw),
		rem:     make([]byte, c.ParityBytes()),
		syn:     make([]uint32, 2*c.T+1),
		sigA:    make([]uint32, 2*c.T+2),
		sigB:    make([]uint32, 2*c.T+2),
		bpoly:   make([]uint32, 2*c.T+2),
		pos:     make([]int, 0, c.T),
		quo:     make([]uint32, c.T+1),
		chienLT: make([]int32, c.T+1),
		chienST: make([]int32, c.T+1),
	}
}

// getScratch draws a scratch from the pool; pairing every get with a
// putScratch is what keeps the hot paths allocation-free under churn.
func (c *Code) getScratch() *Scratch { return c.pool.Get().(*Scratch) }

func (c *Code) putScratch(s *Scratch) { c.pool.Put(s) }
