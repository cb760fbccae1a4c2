package ecc_test

import (
	"fmt"
	"testing"
)

// BenchmarkSectorKernels times the per-sector codec work of the device read
// and program paths at tiredness levels 0-2 (the worn fleet's MaxLevel):
// encode, the clean-read check (Decode of a clean sector, as the read path
// calls it), Decode of a sector with two flipped data bits, and the other
// error weights the worn fleet's decodes see — one bit, and three, four
// and six spread over data and parity — plus a three-bit sector whose
// stuck-column hint covers the errors. An oPage is eight sectors, so eight
// times a level's check and decode2 figures is what the benchmark's traced
// ecc.*_us_per_opage metrics report.
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
		spread := []int{5, 3001, code.K + 40, 1500, 4000, 777}
		for _, n := range []int{1, 3, 4, 6} {
			bits := spread[:n]
			b.Run(fmt.Sprintf("L%d/decode%d", level, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, p := range bits {
						flipBitAt(code, data, parity, p)
					}
					if got, err := code.Decode(data, parity); got != n || err != nil {
						b.Fatalf("%d-bit sector decoded to %d bits, %v", n, got, err)
					}
				}
			})
		}
		hint := []int{5, 3001, code.K + 40, 2600}
		b.Run(fmt.Sprintf("L%d/decode3-erasures", level), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range hint[:3] {
					flipBitAt(code, data, parity, p)
				}
				if got, err := code.DecodeWithErasures(data, parity, hint); got != 3 || err != nil {
					b.Fatalf("hinted 3-bit sector decoded to %d bits, %v", got, err)
				}
			}
		})
	}
}
