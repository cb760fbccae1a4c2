// Fuzz targets for the BCH codec and the oPage-level sector layout. The
// external test package lets these exercise the exact per-level geometries
// the device uses (rber imports ecc, so the plain test package cannot).
package ecc_test

import (
	"bytes"
	"errors"
	"testing"

	"salamander/internal/ecc"
	"salamander/internal/rber"
)

// levelCode returns the real BCH code of a tiredness level. Build shares
// one code per geometry, so fuzz iterations never rebuild the generator.
func levelCode(level int) *ecc.Code {
	c, err := rber.LevelGeometry(level).Build()
	if err != nil {
		panic(err)
	}
	return c
}

// xorshift is the deterministic bit-position source for injected errors.
func xorshift(s *uint64) uint64 {
	*s ^= *s >> 12
	*s ^= *s << 25
	*s ^= *s >> 27
	if *s == 0 {
		*s = 0x9e3779b97f4a7c15
	}
	return *s * 0x2545f4914f6cdd1d
}

// flipDistinct flips n distinct bits of the N = K+R codeword bits (the last
// parity byte may carry padding bits outside the code; those are never
// touched), using the same MSB-first packing as the codec itself. The
// flipped bit indices are returned in flip order (usable as erasure hints).
func flipDistinct(code *ecc.Code, data, parity []byte, n int, seed uint64) []int {
	seen := map[int]bool{}
	order := make([]int, 0, n)
	flip := func(bit int) {
		if bit < code.K {
			data[bit/8] ^= 1 << uint(7-bit%8)
		} else {
			bit -= code.K
			parity[bit/8] ^= 1 << uint(7-bit%8)
		}
	}
	for len(seen) < n {
		bit := int(xorshift(&seed) % uint64(code.N))
		if seen[bit] {
			continue
		}
		seen[bit] = true
		order = append(order, bit)
		flip(bit)
	}
	return order
}

// requireSyndromeAgreement compares the table-driven syndrome path against
// the bit-serial reference oracle on the current data/parity state — the
// tentpole invariant of the byte-wise fast path, checked inside the fuzz
// target so every fuzzed codeword (clean or corrupted) exercises it.
func requireSyndromeAgreement(t *testing.T, code *ecc.Code, data, parity []byte, stage string) {
	t.Helper()
	fast, fastZero := code.Syndromes(data, parity)
	ref, refZero := code.SyndromesBitSerial(data, parity)
	if fastZero != refZero {
		t.Fatalf("%s: table-driven all-zero=%v, bit-serial all-zero=%v", stage, fastZero, refZero)
	}
	if len(fast) != len(ref) {
		t.Fatalf("%s: syndrome length %d vs reference %d", stage, len(fast), len(ref))
	}
	for i := range fast {
		if fast[i] != ref[i] {
			t.Fatalf("%s: S[%d] = %#x, reference %#x", stage, i, fast[i], ref[i])
		}
	}
}

// FuzzBCHRoundTrip: any payload encoded then corrupted with up to t bit
// flips (and, on half the inputs, a flipped pad bit) must decode back to
// the exact original; t+1 flips must never miscorrect silently into a
// "clean" wrong codeword that Check accepts as the original. At every stage
// the syndromes must agree with the bit-serial oracle, and encode, Check
// and decode with the reference kernels of export_test.go.
func FuzzBCHRoundTrip(f *testing.F) {
	f.Add([]byte("salamander"), uint64(1), byte(0))
	f.Add([]byte{0xff, 0x00, 0xa5}, uint64(42), byte(3))
	f.Add([]byte{}, uint64(7), byte(1))
	f.Add(bytes.Repeat([]byte{0x5a}, rber.SectorSize), uint64(99), byte(200))
	f.Fuzz(func(t *testing.T, payload []byte, flipSeed uint64, nFlips byte) {
		code := levelCode(0)
		data := make([]byte, code.K/8)
		copy(data, payload)
		orig := append([]byte(nil), data...)
		parity, err := code.Encode(data)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		origParity := append([]byte(nil), parity...)
		if !bytes.Equal(parity, code.EncodeReference(data)) {
			t.Fatal("sliced parity differs from the byte-wise reference")
		}
		if !code.Check(data, parity) {
			t.Fatal("fresh codeword fails Check")
		}
		requireSyndromeAgreement(t, code, data, parity, "clean")

		n := int(nFlips) % (code.T + 1) // within correction capability
		flipped := flipDistinct(code, data, parity, n, flipSeed)
		if nFlips&0x80 != 0 {
			parity[len(parity)-1] ^= 1 // a pad bit: outside the code
		}
		requireSyndromeAgreement(t, code, data, parity, "corrupted")
		requireSameCheck(t, code, data, parity, "corrupted")
		// Decode and the erasure fast path (hinted with the exact flipped
		// bits) must each match the reference kernels byte for byte.
		requireSameDecode(t, code, data, parity, nil, "corrupted")
		requireSameDecode(t, code, data, parity, flipped, "corrupted, exact hint")
		eraData := append([]byte(nil), data...)
		eraParity := append([]byte(nil), parity...)
		eraN, eraErr := code.DecodeWithErasures(eraData, eraParity, flipped)
		corrected, err := code.Decode(data, parity)
		if eraErr != err || eraN != corrected || !bytes.Equal(eraData, data) || !bytes.Equal(eraParity, parity) {
			t.Fatalf("erasure decode (n=%d, err=%v) disagrees with Decode (n=%d, err=%v)", eraN, eraErr, corrected, err)
		}
		if nFlips&0x80 != 0 {
			parity[len(parity)-1] ^= 1 // decode leaves pad bits alone
		}
		if err != nil {
			t.Fatalf("decode with %d <= t=%d flips: %v", n, code.T, err)
		}
		if corrected != n {
			t.Fatalf("decode corrected %d bits, injected %d", corrected, n)
		}
		if !bytes.Equal(data, orig) || !bytes.Equal(parity, origParity) {
			t.Fatalf("decode did not restore the original codeword (%d flips)", n)
		}

		// Beyond capability: t+1 flips must surface as ErrUncorrectable or
		// as a miscorrection onto a *different* valid codeword — never as a
		// claimed-clean return of a corrupted one.
		flipDistinct(code, data, parity, code.T+1, flipSeed^0xdeadbeef)
		requireSyndromeAgreement(t, code, data, parity, "beyond capability")
		requireSameDecode(t, code, data, parity, nil, "beyond capability")
		_, err = code.Decode(data, parity)
		if err == nil {
			if !code.Check(data, parity) {
				t.Fatal("decode reported success but codeword is dirty")
			}
		} else if !errors.Is(err, ecc.ErrUncorrectable) {
			t.Fatalf("unexpected decode error: %v", err)
		}
	})
}

// FuzzOPageLevelCodec drives the per-level oPage sector layout the device's
// composePage/readOPage pair uses: a level-L fPage carves LevelDataBytes(L)
// of payload into 512B sectors, each with its own parity in the (grown)
// spare area. Corrupting one sector within its correction budget must be
// invisible after decode; sector boundaries must not bleed.
func FuzzOPageLevelCodec(f *testing.F) {
	f.Add(byte(0), []byte("opage"), uint64(3))
	f.Add(byte(1), bytes.Repeat([]byte{0xaa}, 1024), uint64(17))
	f.Add(byte(2), []byte{1, 2, 3, 4}, uint64(29))
	f.Add(byte(3), bytes.Repeat([]byte{0x0f}, 4096), uint64(31))
	f.Fuzz(func(t *testing.T, level byte, payload []byte, flipSeed uint64) {
		lvl := int(level) % (rber.MaxUsableLevel + 1)
		code := levelCode(lvl)
		dataBytes := rber.LevelDataBytes(lvl)
		sectors := dataBytes / rber.SectorSize
		pb := code.ParityBytes()

		// Encode: payload striped across the level's data area, per-sector
		// parity packed behind it, exactly like composePage.
		raw := make([]byte, dataBytes+sectors*pb)
		copy(raw, payload)
		orig := append([]byte(nil), raw[:dataBytes]...)
		for sec := 0; sec < sectors; sec++ {
			parity, err := code.Encode(raw[sec*rber.SectorSize : (sec+1)*rber.SectorSize])
			if err != nil {
				t.Fatalf("level %d sector %d encode: %v", lvl, sec, err)
			}
			copy(raw[dataBytes+sec*pb:], parity)
		}

		// Corrupt one sector within budget.
		seed := flipSeed
		victim := int(xorshift(&seed) % uint64(sectors))
		n := int(xorshift(&seed) % uint64(code.T+1))
		vData := raw[victim*rber.SectorSize : (victim+1)*rber.SectorSize]
		vParity := raw[dataBytes+victim*pb : dataBytes+(victim+1)*pb]
		flipDistinct(code, vData, vParity, n, seed)

		// Decode every sector; the reassembled data area must match.
		for sec := 0; sec < sectors; sec++ {
			sData := raw[sec*rber.SectorSize : (sec+1)*rber.SectorSize]
			sParity := raw[dataBytes+sec*pb : dataBytes+(sec+1)*pb]
			corrected, err := code.Decode(sData, sParity)
			if err != nil {
				t.Fatalf("level %d sector %d decode: %v", lvl, sec, err)
			}
			if sec != victim && corrected != 0 {
				t.Fatalf("level %d sector %d: corruption bled across sector boundary", lvl, sec)
			}
		}
		if !bytes.Equal(raw[:dataBytes], orig) {
			t.Fatalf("level %d: oPage data not restored after %d flips in sector %d", lvl, n, victim)
		}
	})
}
