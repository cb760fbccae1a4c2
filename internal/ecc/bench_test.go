package ecc_test

import (
	"fmt"
	"testing"
)

// BenchmarkSectorKernels times the per-sector codec work of the device read
// and program paths at tiredness levels 0-2 (the worn fleet's MaxLevel):
// encode, the clean-read check (Decode of a clean sector, as the read path
// calls it), and Decode of a sector with two flipped data bits. An oPage
// is eight sectors, so eight times a level's figures is what the
// benchmark's traced ecc.*_us_per_opage metrics report.
func BenchmarkSectorKernels(b *testing.B) {
	for level := 0; level <= 2; level++ {
		code := levelCode(level)
		data := make([]byte, code.K/8)
		fillRandom(data, uint64(level)+1)
		parity := make([]byte, code.ParityBytes())
		if err := code.EncodeInto(data, parity); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("L%d/encode", level), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := code.EncodeInto(data, parity); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("L%d/check", level), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if n, err := code.Decode(data, parity); n != 0 || err != nil {
					b.Fatalf("clean sector decoded to %d bits, %v", n, err)
				}
			}
		})
		b.Run(fmt.Sprintf("L%d/decode2", level), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				data[37] ^= 0x01
				data[138] ^= 0x02
				if n, err := code.Decode(data, parity); n != 2 || err != nil {
					b.Fatalf("2-bit sector decoded to %d bits, %v", n, err)
				}
			}
		})
	}
}
