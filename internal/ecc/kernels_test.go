// Differential battery for the root solvers: the deg-1 direct solve, the
// deg-2 quadratic solver, the deg-3/4 affine solver, and the incremental
// scan to a quartic quotient must all be byte-identical to the retained
// PolyEval-based reference search — same corrections, same
// decoding-failure verdicts — across all four tiredness level geometries,
// and the erasure fast path must match Decode under exact, superset,
// partial, and useless hints. Allocation guards keep the whole correction
// path on pooled scratch.
package ecc_test

import (
	"bytes"
	"fmt"
	"testing"

	"salamander/internal/ecc"
	"salamander/internal/rber"
)

// kernelFlipCounts covers every root solver: 0 (no-op), 1 (direct solve),
// 2 (quadratic), 3 and 4 (affine), 5+ (scan to a quartic quotient), with
// weights on each side of the first syndrome-round boundaries and up to
// full capability. Heavy counts are trimmed under -short — the reference
// scan at t=955 costs real time.
func kernelFlipCounts(code *ecc.Code) []int {
	counts := []int{0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 25, code.T / 2, code.T}
	if testing.Short() && code.T > 64 {
		counts = []int{0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 25}
	}
	out := counts[:0]
	for _, n := range counts {
		if n <= code.T {
			out = append(out, n)
		}
	}
	return out
}

// decodeBoth runs the kernel decoder and the reference decoder on copies of
// the same corrupted codeword and requires identical results in every
// observable way: count, error, and the exact bytes left behind.
func decodeBoth(t *testing.T, code *ecc.Code, data, parity []byte, stage string) (int, error) {
	t.Helper()
	refData := append([]byte(nil), data...)
	refParity := append([]byte(nil), parity...)
	n, err := code.Decode(data, parity)
	refN, refErr := code.DecodeReference(refData, refParity, nil)
	if n != refN || err != refErr {
		t.Fatalf("%s: kernels (n=%d, err=%v) vs reference (n=%d, err=%v)", stage, n, err, refN, refErr)
	}
	if !bytes.Equal(data, refData) || !bytes.Equal(parity, refParity) {
		t.Fatalf("%s: kernel corrections not byte-identical to reference", stage)
	}
	return n, err
}

// TestChienKernelDifferentialAllLevels is the battery proper: random
// codewords at every level geometry, error weights landing in each kernel,
// plus beyond-capability and arbitrary-garbage inputs where only the
// verdict agreement matters.
func TestChienKernelDifferentialAllLevels(t *testing.T) {
	for level := 0; level <= rber.MaxUsableLevel; level++ {
		level := level
		t.Run(fmt.Sprintf("level%d", level), func(t *testing.T) {
			code := levelCode(level)
			seed := uint64(level)*0xb5ad4eceda1ce2a9 + 3
			orig := make([]byte, code.K/8)
			fillRandom(orig, seed)
			origParity, err := code.Encode(orig)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}

			for _, n := range kernelFlipCounts(code) {
				data := append([]byte(nil), orig...)
				parity := append([]byte(nil), origParity...)
				flipDistinct(code, data, parity, n, seed^uint64(n)<<8)
				got, err := decodeBoth(t, code, data, parity, fmt.Sprintf("%d flips", n))
				if err != nil || got != n {
					t.Fatalf("%d flips: corrected %d, err %v", n, got, err)
				}
				if !bytes.Equal(data, orig) || !bytes.Equal(parity, origParity) {
					t.Fatalf("%d flips: decode did not restore original", n)
				}
			}

			// Beyond capability: verdicts (and any miscorrection bytes) must
			// still agree kernel-vs-reference.
			for _, extra := range []int{1, 7, code.T} {
				data := append([]byte(nil), orig...)
				parity := append([]byte(nil), origParity...)
				flipDistinct(code, data, parity, code.T+extra, seed^0xfeed^uint64(extra))
				decodeBoth(t, code, data, parity, fmt.Sprintf("t+%d flips", extra))
			}

			// Arbitrary garbage (not near any codeword).
			data := make([]byte, code.K/8)
			parity := make([]byte, code.ParityBytes())
			fillRandom(data, seed^0xabcdef)
			fillRandom(parity, seed^0x123456)
			decodeBoth(t, code, data, parity, "garbage input")
		})
	}
}

// TestDecodeWithErasures pins the erasure fast path against plain Decode
// under every hint quality: exact, superset (extra innocent positions),
// partial (fallback to full search), disjoint/useless, out-of-range, and
// empty. All must correct identically; the erasure list is never trusted.
func TestDecodeWithErasures(t *testing.T) {
	for level := 0; level <= rber.MaxUsableLevel; level++ {
		code := levelCode(level)
		seed := uint64(level)*0x2545f4914f6cdd1d + 11
		orig := make([]byte, code.K/8)
		fillRandom(orig, seed)
		origParity, err := code.Encode(orig)
		if err != nil {
			t.Fatalf("level %d encode: %v", level, err)
		}

		nFlips := 5
		hintsFor := func(flipped []int) map[string][]int {
			superset := append([]int(nil), flipped...)
			superset = append(superset, 0, code.N-1, code.K) // innocent extras
			return map[string][]int{
				"exact":        flipped,
				"superset":     superset,
				"partial":      flipped[:2],
				"disjoint":     {5, 6, 7, 8, 9},
				"out-of-range": {-1, code.N, code.N + 100, flipped[0]},
				"empty":        {},
				"nil":          nil,
			}
		}

		data := append([]byte(nil), orig...)
		parity := append([]byte(nil), origParity...)
		flipped := flipDistinct(code, data, parity, nFlips, seed^0x77)
		for name, hint := range hintsFor(flipped) {
			eData := append([]byte(nil), data...)
			eParity := append([]byte(nil), parity...)
			n, err := code.DecodeWithErasures(eData, eParity, hint)
			if err != nil || n != nFlips {
				t.Fatalf("level %d %s hint: corrected %d, err %v", level, name, n, err)
			}
			if !bytes.Equal(eData, orig) || !bytes.Equal(eParity, origParity) {
				t.Fatalf("level %d %s hint: not restored to original", level, name)
			}
		}

		// Clean codeword with hints: nothing to correct.
		eData := append([]byte(nil), orig...)
		eParity := append([]byte(nil), origParity...)
		if n, err := code.DecodeWithErasures(eData, eParity, []int{1, 2, 3}); n != 0 || err != nil {
			t.Fatalf("level %d clean with hints: n=%d err=%v", level, n, err)
		}

		// Beyond capability with hints: verdict must match plain Decode.
		bData := append([]byte(nil), orig...)
		bParity := append([]byte(nil), origParity...)
		over := flipDistinct(code, bData, bParity, code.T+1, seed^0x99)
		eData = append(eData[:0], bData...)
		eParity = append(eParity[:0], bParity...)
		_, plainErr := code.Decode(bData, bParity)
		_, eraErr := code.DecodeWithErasures(eData, eParity, over)
		if (plainErr != nil) != (eraErr != nil) || !bytes.Equal(bData, eData) || !bytes.Equal(bParity, eParity) {
			t.Fatalf("level %d beyond capability: Decode err=%v, DecodeWithErasures err=%v", level, plainErr, eraErr)
		}
	}
}

// TestCorrectionPathAllocations extends the zero-alloc discipline to every
// branch of the correction path: each root solver, an early round that
// settles the decode, an early attempt the remainder check refuses, the
// last round, a word beyond t, and the erasure probe. The pooled scratch
// holds every buffer, so none of them allocates.
func TestCorrectionPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	code := levelCode(0)
	orig := make([]byte, code.K/8)
	fillRandom(orig, 31337)
	origParity, err := code.Encode(orig)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	data := make([]byte, len(orig))
	parity := make([]byte, len(origParity))

	type word struct {
		name          string
		data, parity  []byte
		hint          []int
		uncorrectable bool
	}
	var words []word
	for _, n := range []int{1, 2, 3, 4, 5, 9, 17, code.T, code.T + 1} {
		copy(data, orig)
		copy(parity, origParity)
		flipped := flipDistinct(code, data, parity, n, uint64(n)*0x9e3779b97f4a7c15)
		words = append(words, word{fmt.Sprintf("%d errors", n),
			append([]byte(nil), data...), append([]byte(nil), parity...), flipped, n > code.T})
	}
	copy(data, orig)
	copy(parity, origParity)
	hidden := hiddenWord(code, 1, 7, 2)
	for _, p := range hidden {
		flipBitAt(code, data, parity, p)
	}
	words = append(words, word{"early attempt refused", append([]byte(nil), data...),
		append([]byte(nil), parity...), hidden, false})

	for _, w := range words {
		for _, hinted := range []bool{false, true} {
			if allocs := testing.AllocsPerRun(100, func() {
				copy(data, w.data)
				copy(parity, w.parity)
				var err error
				if hinted {
					_, err = code.DecodeWithErasures(data, parity, w.hint)
				} else {
					_, err = code.Decode(data, parity)
				}
				if (err != nil) != w.uncorrectable {
					t.Fatalf("%s, hinted %v: err %v", w.name, hinted, err)
				}
			}); allocs != 0 {
				t.Errorf("%s, hinted %v: %.1f allocs/op, want 0", w.name, hinted, allocs)
			}
		}
	}
}

// flipBitAt flips codeword bit i, MSB-first, data bits then parity bits.
func flipBitAt(code *ecc.Code, data, parity []byte, i int) {
	if i < code.K {
		data[i/8] ^= 1 << uint(7-i%8)
		return
	}
	i -= code.K
	parity[i/8] ^= 1 << uint(7-i%8)
}
