// Differential and allocation tests for the table-driven ECC fast path.
// The external test package gives access to the real per-level geometries
// (rber imports ecc, so the plain test package cannot), which is exactly
// what the acceptance criteria pin: table-driven syndromes and in-place
// decode must be byte-identical to the bit-serial reference oracle across
// every tiredness-level code, and the clean-read path must not allocate.
package ecc_test

import (
	"bytes"
	"testing"

	"salamander/internal/ecc"
	"salamander/internal/rber"
)

// levelFlipCounts picks error weights to exercise per level: the empty
// pattern, singles and small patterns (the common RBER regime), half
// capability, and full capability. Heavy counts are trimmed under -short
// because Chien search at t=955 (level 3) costs real time.
func levelFlipCounts(t *testing.T, code *ecc.Code) []int {
	counts := []int{0, 1, 2, 7, code.T / 2, code.T}
	if testing.Short() && code.T > 64 {
		counts = []int{0, 1, 7, 31}
	}
	out := counts[:0]
	for _, n := range counts {
		if n <= code.T {
			out = append(out, n)
		}
	}
	return out
}

// fillRandom fills b deterministically from seed.
func fillRandom(b []byte, seed uint64) {
	for i := range b {
		b[i] = byte(xorshift(&seed))
	}
}

// TestSyndromeDifferentialAllLevels checks the tentpole invariant over all
// (m, t) geometries the device uses — level 0 (m=13, t=39) through level 3
// (m=15, t=955) — on random codewords with error weights from zero to full
// capability, plus a beyond-capability dense pattern: the table-driven
// syndromes must equal the bit-serial reference exactly, and decode must
// restore the original codeword byte for byte.
func TestSyndromeDifferentialAllLevels(t *testing.T) {
	for level := 0; level <= rber.MaxUsableLevel; level++ {
		code := levelCode(level)
		seed := uint64(level)*0x9e3779b97f4a7c15 + 1
		data := make([]byte, code.K/8)
		fillRandom(data, seed)
		parity, err := code.Encode(data)
		if err != nil {
			t.Fatalf("level %d encode: %v", level, err)
		}
		orig := append([]byte(nil), data...)
		origParity := append([]byte(nil), parity...)

		for _, n := range levelFlipCounts(t, code) {
			flipDistinct(code, data, parity, n, seed^uint64(n))
			requireSyndromeAgreement(t, code, data, parity, "level flips")
			corrected, err := code.Decode(data, parity)
			if err != nil {
				t.Fatalf("level %d decode with %d <= t=%d flips: %v", level, n, code.T, err)
			}
			if corrected != n {
				t.Fatalf("level %d: corrected %d bits, injected %d", level, corrected, n)
			}
			if !bytes.Equal(data, orig) || !bytes.Equal(parity, origParity) {
				t.Fatalf("level %d: decode not byte-identical to original after %d flips", level, n)
			}
		}

		// Beyond-capability pattern: only the syndrome agreement is asserted
		// (decode behavior past t is bounded-distance, checked by the fuzz
		// target); restore state for the next level via fresh buffers.
		flipDistinct(code, data, parity, code.T+1, seed^0xfeed)
		requireSyndromeAgreement(t, code, data, parity, "beyond capability")
	}
}

// TestEncodeIntoMatchesEncode pins the caller-buffer API to the allocating
// one across every level geometry.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	for level := 0; level <= rber.MaxUsableLevel; level++ {
		code := levelCode(level)
		data := make([]byte, code.K/8)
		fillRandom(data, uint64(level)+77)
		want, err := code.Encode(data)
		if err != nil {
			t.Fatalf("level %d Encode: %v", level, err)
		}
		got := make([]byte, code.ParityBytes())
		// Pre-dirty the buffer: EncodeInto must fully overwrite it.
		fillRandom(got, 123)
		if err := code.EncodeInto(data, got); err != nil {
			t.Fatalf("level %d EncodeInto: %v", level, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("level %d: EncodeInto parity differs from Encode", level)
		}
		if err := code.EncodeInto(data[:1], got); err == nil {
			t.Fatalf("level %d: EncodeInto accepted short data", level)
		}
		if err := code.EncodeInto(data, got[:1]); err == nil {
			t.Fatalf("level %d: EncodeInto accepted short parity", level)
		}
	}
}

// TestEncodeSectors pins the shared per-sector compose helper against a
// sector-at-a-time Encode loop over every level's fPage layout, including
// the dirty-buffer case (stale parity must be overwritten).
func TestEncodeSectors(t *testing.T) {
	for level := 0; level <= rber.MaxUsableLevel; level++ {
		code := levelCode(level)
		dataBytes := rber.LevelDataBytes(level)
		sectors := dataBytes / rber.SectorSize
		pb := code.ParityBytes()

		raw := make([]byte, dataBytes+sectors*pb)
		fillRandom(raw, uint64(level)*31+5) // dirty parity area too
		want := append([]byte(nil), raw...)
		for sec := 0; sec < sectors; sec++ {
			parity, err := code.Encode(want[sec*rber.SectorSize : (sec+1)*rber.SectorSize])
			if err != nil {
				t.Fatalf("level %d sector %d encode: %v", level, sec, err)
			}
			copy(want[dataBytes+sec*pb:], parity)
		}
		if err := code.EncodeSectors(raw, dataBytes, rber.SectorSize); err != nil {
			t.Fatalf("level %d EncodeSectors: %v", level, err)
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("level %d: EncodeSectors differs from per-sector Encode", level)
		}

		if err := code.EncodeSectors(raw[:dataBytes], dataBytes, rber.SectorSize); err == nil {
			t.Fatalf("level %d: EncodeSectors accepted raw with no parity room", level)
		}
		if err := code.EncodeSectors(raw, dataBytes-1, rber.SectorSize); err == nil {
			t.Fatalf("level %d: EncodeSectors accepted non-multiple data size", level)
		}
		if err := code.EncodeSectors(raw, dataBytes, rber.SectorSize/2); err == nil {
			t.Fatalf("level %d: EncodeSectors accepted mismatched sector size", level)
		}
	}
}

// TestFastPathAllocations is the regression guard for the zero-allocation
// discipline: clean-read Check, EncodeInto and Decode with injected errors
// must not allocate at all (TestCorrectionPathAllocations covers every
// decode branch). A regression here silently re-inflates the per-read
// garbage the pooled scratch removed.
func TestFastPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless")
	}
	code := levelCode(0)
	data := make([]byte, code.K/8)
	fillRandom(data, 4242)
	parity, err := code.Encode(data)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	if n := testing.AllocsPerRun(200, func() {
		if !code.Check(data, parity) {
			t.Fatal("clean codeword fails Check")
		}
	}); n != 0 {
		t.Errorf("Check (clean read): %.1f allocs/op, want 0", n)
	}

	scratchParity := make([]byte, code.ParityBytes())
	if n := testing.AllocsPerRun(200, func() {
		if err := code.EncodeInto(data, scratchParity); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("EncodeInto: %.1f allocs/op, want 0", n)
	}

	// Decode with real corrections: flip a fixed bit set, decode flips them
	// back, so each iteration starts from the same clean state. The flip
	// loop itself allocates nothing. AllocsPerRun truncates the mean to a
	// whole number, so one scratch repopulation after a GC clears the pool
	// does not show.
	flips := []int{3, 1000, 2500, code.K + 5, code.N - 1}
	if n := testing.AllocsPerRun(100, func() {
		for _, bit := range flips {
			if bit < code.K {
				data[bit/8] ^= 1 << uint(7-bit%8)
			} else {
				pbit := bit - code.K
				parity[pbit/8] ^= 1 << uint(7-pbit%8)
			}
		}
		corrected, err := code.Decode(data, parity)
		if err != nil {
			t.Fatal(err)
		}
		if corrected != len(flips) {
			t.Fatalf("corrected %d, want %d", corrected, len(flips))
		}
	}); n != 0 {
		t.Errorf("Decode (%d injected errors): %.1f allocs/op, want 0", len(flips), n)
	}
}
