// Differential battery for the one-pass codec: the word-sliced LFSR, the
// syndromes evaluated from the remainder round by round, and the remainder
// check of the corrected word must agree byte for byte with the reference kernels in
// export_test.go (byte-wise LFSR, Horner over the whole codeword,
// PolyEval Chien search, a final full Check) at every level geometry.
package ecc_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"salamander/internal/ecc"
	"salamander/internal/rber"
)

// differentialWeights lists the error weights the battery injects: every
// weight 0..t+3 where t is small, otherwise weights landing in each root
// solver (0, 1, 2, 3..4, 5+) and on each side of the first syndrome-round
// boundaries (4, 5, 8, 9, 16, 17), plus the band around t/2 and t. Deep
// weights at level 3 (t=955) cost the reference Chien scan ~0.1 s each
// and are skipped under -short.
func differentialWeights(code *ecc.Code, level int) []int {
	if code.T <= 40 {
		w := make([]int, code.T+4)
		for i := range w {
			w[i] = i
		}
		return w
	}
	w := []int{0, 1, 2, 3, 4, 5, 8, 9, 12, 16, 17}
	if level == 3 && testing.Short() {
		return w
	}
	return append(w, code.T/2, code.T-1, code.T, code.T+1, code.T+2, code.T+3)
}

// requireSameDecode runs DecodeWithErasures (Decode for a nil hint) and the
// reference decoder on copies of one received word and requires the same
// count, the same error, and the same bytes left behind.
func requireSameDecode(t *testing.T, code *ecc.Code, data, parity []byte, hint []int, stage string) {
	t.Helper()
	d, p := append([]byte(nil), data...), append([]byte(nil), parity...)
	rd, rp := append([]byte(nil), data...), append([]byte(nil), parity...)
	var n int
	var err error
	if hint == nil {
		n, err = code.Decode(d, p)
	} else {
		n, err = code.DecodeWithErasures(d, p, hint)
	}
	rn, rerr := code.DecodeReference(rd, rp, hint)
	if n != rn || err != rerr {
		t.Fatalf("%s: decode (n=%d, err=%v) vs reference (n=%d, err=%v)", stage, n, err, rn, rerr)
	}
	if !bytes.Equal(d, rd) || !bytes.Equal(p, rp) {
		t.Fatalf("%s: decode left different bytes than the reference", stage)
	}
}

// requireSameCheck compares Check and Syndromes with their references on
// one received word.
func requireSameCheck(t *testing.T, code *ecc.Code, data, parity []byte, stage string) {
	t.Helper()
	if got, want := code.Check(data, parity), code.CheckReference(data, parity); got != want {
		t.Fatalf("%s: Check %v, reference %v", stage, got, want)
	}
	syn, zero := code.Syndromes(data, parity)
	ref, refZero := code.SyndromesReference(data, parity)
	if zero != refZero {
		t.Fatalf("%s: syndromes all-zero %v, reference %v", stage, zero, refZero)
	}
	for i := range ref {
		if syn[i] != ref[i] {
			t.Fatalf("%s: S[%d] = %#x, reference %#x", stage, i, syn[i], ref[i])
		}
	}
}

// TestOnePassCodecMatchesReference is the battery: at every level, encode
// against the byte-wise and bit-serial references, then error weights
// 0..t+3, with and without a flipped pad bit, decoded with no hint and with
// right, wrong and partial erasure hints.
func TestOnePassCodecMatchesReference(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine arithmetic; runs in the non-race pass")
	}
	for level := 0; level <= rber.MaxUsableLevel; level++ {
		level := level
		t.Run(fmt.Sprintf("level%d", level), func(t *testing.T) {
			code := levelCode(level)
			pb := code.ParityBytes()
			pad := 8*pb - code.R
			seed := uint64(level)*0x7f4a7c159e3779b9 + 5
			orig := make([]byte, code.K/8)
			for trial := 0; trial < 3; trial++ {
				fillRandom(orig, seed+uint64(trial))
				parity, err := code.Encode(orig)
				if err != nil {
					t.Fatal(err)
				}
				if ref := code.EncodeReference(orig); !bytes.Equal(parity, ref) {
					t.Fatalf("trial %d: sliced parity differs from the byte-wise reference", trial)
				}
				if ref := code.EncodeBitSerial(orig); !bytes.Equal(parity, ref) {
					t.Fatalf("trial %d: sliced parity differs from the bit-serial oracle", trial)
				}
			}
			origParity, err := code.Encode(orig)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range differentialWeights(code, level) {
				for _, padFlip := range []bool{false, true} {
					if w > 12 && padFlip != (w%2 == 1) {
						continue // deep weights: one pad variant each, alternating
					}
					data := append([]byte(nil), orig...)
					parity := append([]byte(nil), origParity...)
					flipped := flipDistinct(code, data, parity, w, seed^uint64(w)<<16)
					if padFlip {
						parity[pb-1] ^= 1 << uint(w%pad)
					}
					stage := fmt.Sprintf("%d flips, pad flip %v", w, padFlip)
					requireSameCheck(t, code, data, parity, stage)
					wrong := []int{}
					for bit := 0; len(wrong) < w+1 && bit < code.N; bit += 97 {
						if !slices.Contains(flipped, bit) {
							wrong = append(wrong, bit)
						}
					}
					hints := map[string][]int{
						"none":    nil,
						"right":   flipped,
						"wrong":   wrong,
						"partial": flipped[:w/2],
					}
					if w > 12 {
						// A wrong or partial hint falls back to the full
						// scan, which "none" already covers; at deep
						// weights that scan is the whole cost.
						delete(hints, "wrong")
						delete(hints, "partial")
					}
					for name, hint := range hints {
						requireSameDecode(t, code, data, parity, hint, stage+", hint "+name)
					}
				}
			}
		})
	}
}
