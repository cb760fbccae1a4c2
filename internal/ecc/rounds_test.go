// Tests for decode's syndrome rounds: a decode stops at the first round
// that can see every error, words on each side of a round boundary decode
// as the reference does, and an early locator whose roots all lie in the
// window but whose correction the remainder refuses leaves the word to the
// later rounds.
package ecc_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"salamander/internal/ecc"
	"salamander/internal/rber"
)

// roundWeights are error weights on each side of the first round
// boundaries (w = 4, 8, 12, 16, 20), within capability t.
func roundWeights(code *ecc.Code) []int {
	var out []int
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 16, 17} {
		if n <= code.T {
			out = append(out, n)
		}
	}
	return out
}

// TestRoundsStopAtTheErrorsPresent pins what decode pays for: with n <= t
// errors, Berlekamp–Massey's length stays n once a round holds more than n
// odd syndromes, and that round's correction verifies, so the decode
// consumes 2w syndromes for the first round w > n (all 2t at the last
// round). No earlier round can settle it: a codeword within L < w <= n of
// the received word would be a second one within t. Each word also
// decodes exactly as the reference does.
func TestRoundsStopAtTheErrorsPresent(t *testing.T) {
	for level := 0; level <= rber.MaxUsableLevel; level++ {
		code := levelCode(level)
		orig := make([]byte, code.K/8)
		fillRandom(orig, uint64(level)+0x51)
		origParity, err := code.Encode(orig)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range roundWeights(code) {
			data := append([]byte(nil), orig...)
			parity := append([]byte(nil), origParity...)
			flipped := flipDistinct(code, data, parity, n, uint64(level)<<32^uint64(n)*0x9e37)
			stage := fmt.Sprintf("level %d, %d errors", level, n)
			requireSameDecode(t, code, data, parity, nil, stage)
			requireSameDecode(t, code, data, parity, flipped, stage+", hinted")
			got, used, err := code.DecodeCounted(data, parity, nil)
			if err != nil || got != n || !bytes.Equal(data, orig) || !bytes.Equal(parity, origParity) {
				t.Fatalf("%s: corrected %d, err %v", stage, got, err)
			}
			if want := 2 * min(4*(n/4+1), code.T); used != want {
				t.Errorf("%s: decode consumed %d syndromes, want %d", stage, used, want)
			}
		}
		if _, used, err := code.DecodeCounted(orig, origParity, nil); used != 0 || err != nil {
			t.Errorf("level %d clean read: consumed %d syndromes, err %v", level, used, err)
		}
	}
}

// hiddenWord returns the bit positions of HiddenFromRounds(rounds, seed)
// plus extra further distinct positions: the extra errors are all the
// first rounds see.
func hiddenWord(code *ecc.Code, rounds int, seed uint64, extra int) []int {
	pos := code.HiddenFromRounds(rounds, seed)
	for p := 7; extra > 0; p += 613 {
		if !slices.Contains(pos, p%code.N) {
			pos = append(pos, p%code.N)
			extra--
		}
	}
	return pos
}

// TestEarlyRootsThatFailTheCheck builds words whose first rounds see only
// a few errors: a pattern the first rounds' syndromes cannot see (found
// by HiddenFromRounds) plus 0–4 plain flips. Berlekamp–Massey's early σ
// then has length below w and all its roots in the window, yet the
// correction it names leaves a nonzero remainder. Decode must refuse it,
// flip nothing, and go on to the reference's answer: here, the whole
// pattern corrected, since it stays within t.
func TestEarlyRootsThatFailTheCheck(t *testing.T) {
	for level := 0; level <= rber.MaxUsableLevel; level++ {
		code := levelCode(level)
		orig := make([]byte, code.K/8)
		fillRandom(orig, uint64(level)+0x77)
		origParity, err := code.Encode(orig)
		if err != nil {
			t.Fatal(err)
		}
		for rounds := 1; rounds <= 2; rounds++ {
			for extra := 0; extra <= 4; extra++ {
				pos := hiddenWord(code, rounds, uint64(100*level+10*rounds+extra+1), extra)
				if len(pos) > code.T {
					continue // the hidden part alone is beyond this level's t
				}
				data := append([]byte(nil), orig...)
				parity := append([]byte(nil), origParity...)
				for _, p := range pos {
					flipBitAt(code, data, parity, p)
				}
				stage := fmt.Sprintf("level %d, hidden from %d rounds + %d flips (%d errors)", level, rounds, extra, len(pos))
				requireSameDecode(t, code, data, parity, nil, stage)
				requireSameDecode(t, code, data, parity, pos[len(pos)-extra:], stage+", hinted")
				got, used, err := code.DecodeCounted(data, parity, nil)
				if err != nil || got != len(pos) || !bytes.Equal(data, orig) || !bytes.Equal(parity, origParity) {
					t.Fatalf("%s: corrected %d, err %v", stage, got, err)
				}
				if used <= 8*rounds {
					t.Fatalf("%s: settled after %d syndromes, inside the rounds that cannot see it", stage, used)
				}
			}
		}
	}
}
