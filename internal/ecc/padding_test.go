package ecc_test

import (
	"bytes"
	"fmt"
	"testing"

	"salamander/internal/rber"
)

// TestParityPaddingIgnored pins that the 8·ParityBytes()−R unused low bits
// of a sector's last parity byte are outside the code. The flash flips
// them like any other stored bit; a flipped pad bit alone must read clean,
// and beside a correctable error it must not turn the sector into
// ErrUncorrectable. Every level geometry has pad bits (5, 2, 7 and 6 at
// levels 0-3).
func TestParityPaddingIgnored(t *testing.T) {
	for level := 0; level <= rber.MaxUsableLevel; level++ {
		code := levelCode(level)
		pb := code.ParityBytes()
		pad := 8*pb - code.R
		if pad == 0 {
			t.Fatalf("level %d: geometry has no pad bits to test", level)
		}
		orig := make([]byte, code.K/8)
		fillRandom(orig, uint64(level)*0x51ed27+9)
		origParity, err := code.Encode(orig)
		if err != nil {
			t.Fatalf("level %d encode: %v", level, err)
		}
		for p := 0; p < pad; p++ {
			for _, dataFlips := range []int{0, 1, 2} {
				name := fmt.Sprintf("level %d pad bit %d + %d data flips", level, p, dataFlips)
				data := append([]byte(nil), orig...)
				parity := append([]byte(nil), origParity...)
				flipped := flipDistinct(code, data, parity, dataFlips, uint64(p*3+dataFlips+1))
				parity[pb-1] ^= 1 << uint(p)
				if dataFlips == 0 && !code.Check(data, parity) {
					t.Fatalf("%s: Check rejects a codeword whose only flip is padding", name)
				}
				eData := append([]byte(nil), data...)
				eParity := append([]byte(nil), parity...)
				n, err := code.Decode(data, parity)
				if err != nil || n != dataFlips {
					t.Fatalf("%s: Decode n=%d err=%v, want n=%d", name, n, err, dataFlips)
				}
				if !bytes.Equal(data, orig) || !bytes.Equal(parity[:pb-1], origParity[:pb-1]) {
					t.Fatalf("%s: Decode did not restore the codeword", name)
				}
				n, err = code.DecodeWithErasures(eData, eParity, flipped)
				if err != nil || n != dataFlips || !bytes.Equal(eData, orig) {
					t.Fatalf("%s: DecodeWithErasures n=%d err=%v, want n=%d", name, n, err, dataFlips)
				}
			}
		}
	}
}
