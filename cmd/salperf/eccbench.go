package main

import (
	"fmt"
	"os"
	"time"

	"salamander/internal/ecc"
	"salamander/internal/metrics"
	"salamander/internal/rber"
)

// minSpeedupL0 is the machine-independent acceptance floor for the
// table-driven syndrome path: at the level-0 geometry it must run at least
// this many times faster than the bit-serial reference. A ratio of two rates
// measured in the same process does not drift with the host, so it is
// enforced on every -ecc run.
const minSpeedupL0 = 4.0

// eccPoint is one tiredness level's codec throughput measurement. MB/s is
// payload (sector data) bytes per wall-clock second.
type eccPoint struct {
	Level, T            int
	EncodeMBPerSec      float64
	CheckMBPerSec       float64
	DecodeMBPerSec      float64
	SyndromeMBPerSec    float64
	SyndromeRefMBPerSec float64
	SyndromeSpeedup     float64
	// Degraded figures (-degraded): decode throughput under an elevated-RBER
	// error-count mix spanning a quarter to the full correction budget —
	// what tired flash actually hands the decoder — and the erasure-hinted
	// decode throughput with stuck-column candidates covering every error.
	DegradedDecodeMBPerSec float64
	ErasureDecodeMBPerSec  float64
}

// measureMBPerSec times op (which processes bytesPerOp payload bytes) with
// adaptive iteration counts until each trial runs long enough to trust, and
// returns the best of five trials — the standard defense against scheduler
// noise in a wall-clock benchmark. The trial floor matters for the slow
// high-t geometries: at level 3 a syndrome pass runs ~50ms, so a short
// trial is a sample of one op and a single preemption sinks it.
func measureMBPerSec(bytesPerOp int, op func()) float64 {
	const minDur = 60 * time.Millisecond
	best := 0.0
	iters := 1
	for trial := 0; trial < 5; trial++ {
		for {
			start := time.Now()
			for i := 0; i < iters; i++ {
				op()
			}
			elapsed := time.Since(start)
			if elapsed < minDur {
				iters *= 2
				continue
			}
			if mbs := float64(bytesPerOp) * float64(iters) / elapsed.Seconds() / 1e6; mbs > best {
				best = mbs
			}
			break
		}
	}
	return best
}

// flipSector injects a small fixed error pattern spanning data and parity.
// Decode corrects the same bits back, so one buffer pair serves every
// iteration without re-encoding.
func flipSector(code *ecc.Code, data, parity []byte, bits []int) {
	for _, bit := range bits {
		if bit < code.K {
			data[bit/8] ^= 1 << uint(7-bit%8)
		} else {
			p := bit - code.K
			parity[p/8] ^= 1 << uint(7-p%8)
		}
	}
}

// spreadBits returns count distinct bit positions spread evenly over
// [0, n): one per stride bucket, offset deterministically by salt so
// different patterns don't collide on the same positions.
func spreadBits(n, count, salt int) []int {
	stride := n / count
	bits := make([]int, count)
	for j := 0; j < count; j++ {
		bits[j] = j*stride + (j*7919+salt*131)%stride
	}
	return bits
}

// benchLevel measures one level's codec: encode and clean-read check
// throughput, decode throughput with a realistic handful of bit errors, and
// the syndrome stage both table-driven and bit-serial (the pre-PR reference
// kept as oracle), whose ratio is the fast path's speedup. With degraded
// set it also measures the tired-flash figures (eccPoint degraded fields).
func benchLevel(level int, degraded bool) (eccPoint, error) {
	g := rber.LevelGeometry(level)
	code, err := g.Build()
	if err != nil {
		return eccPoint{}, err
	}
	data := make([]byte, code.K/8)
	seed := uint64(level)*0x9e3779b97f4a7c15 + 0xb5
	for i := range data {
		seed ^= seed >> 12
		seed ^= seed << 25
		seed ^= seed >> 27
		data[i] = byte(seed * 0x2545f4914f6cdd1d)
	}
	parity := make([]byte, code.ParityBytes())
	if err := code.EncodeInto(data, parity); err != nil {
		return eccPoint{}, err
	}
	pt := eccPoint{Level: level, T: code.T}
	sector := len(data)

	pt.EncodeMBPerSec = measureMBPerSec(sector, func() {
		if err := code.EncodeInto(data, parity); err != nil {
			panic(err)
		}
	})
	pt.CheckMBPerSec = measureMBPerSec(sector, func() {
		if !code.Check(data, parity) {
			panic("clean codeword fails Check")
		}
	})
	errBits := []int{1, 600, 2000, code.K + 3}
	pt.DecodeMBPerSec = measureMBPerSec(sector, func() {
		flipSector(code, data, parity, errBits)
		n, err := code.Decode(data, parity)
		if err != nil || n != len(errBits) {
			panic(fmt.Sprintf("decode: n=%d err=%v", n, err))
		}
	})
	pt.SyndromeMBPerSec = measureMBPerSec(sector, func() {
		code.Syndromes(data, parity)
	})
	pt.SyndromeRefMBPerSec = measureMBPerSec(sector, func() {
		code.SyndromesBitSerial(data, parity)
	})
	if pt.SyndromeRefMBPerSec > 0 {
		pt.SyndromeSpeedup = pt.SyndromeMBPerSec / pt.SyndromeRefMBPerSec
	}
	if !degraded {
		return pt, nil
	}

	// Degraded decode: cycle sectors carrying a quarter, half, three
	// quarters, and the full error budget — the count mix elevated RBER
	// produces as blocks approach a level's retirement point. Decode cost
	// grows with the error count, so a fixed small count (the clean-path
	// figure above) flatters the decoder tired flash actually sees.
	var patterns [][]int
	for i, f := range []float64{0.25, 0.5, 0.75, 1} {
		n := int(f * float64(code.T))
		if n < 1 {
			n = 1
		}
		patterns = append(patterns, spreadBits(code.N, n, i+1))
	}
	k := 0
	pt.DegradedDecodeMBPerSec = measureMBPerSec(sector, func() {
		bits := patterns[k%len(patterns)]
		k++
		flipSector(code, data, parity, bits)
		n, err := code.Decode(data, parity)
		if err != nil || n != len(bits) {
			panic(fmt.Sprintf("degraded decode: n=%d want %d err=%v", n, len(bits), err))
		}
	})

	// Erasure-hinted decode: 20 stuck-column candidates of which 16 are
	// actually in error (a stuck bit-line matches the stored bit a quarter
	// of the time), the shape wear tracking hands DecodeWithErasures.
	cand := spreadBits(code.N, 20, 9)
	hinted := cand[:16]
	pt.ErasureDecodeMBPerSec = measureMBPerSec(sector, func() {
		flipSector(code, data, parity, hinted)
		n, err := code.DecodeWithErasures(data, parity, cand)
		if err != nil || n != len(hinted) {
			panic(fmt.Sprintf("erasure decode: n=%d want %d err=%v", n, len(hinted), err))
		}
	})
	return pt, nil
}

// runECCBench measures the BCH codec at every tiredness-level geometry,
// prints the table, and enforces the level-0 syndrome speedup floor.
func runECCBench(degraded bool) error {
	var pts []eccPoint
	for level := 0; level <= rber.MaxUsableLevel; level++ {
		pt, err := benchLevel(level, degraded)
		if err != nil {
			return err
		}
		pts = append(pts, pt)
	}

	fmt.Println("== BCH codec throughput per tiredness level (payload MB/s) ==")
	t := metrics.NewTable("level", "t", "encode", "check", "decode", "syndrome", "syn-bitserial", "syn-speedup")
	for _, p := range pts {
		t.Row(float64(p.Level), float64(p.T), p.EncodeMBPerSec, p.CheckMBPerSec,
			p.DecodeMBPerSec, p.SyndromeMBPerSec, p.SyndromeRefMBPerSec, p.SyndromeSpeedup)
	}
	t.Render(os.Stdout)
	if degraded {
		fmt.Println("== degraded-path decode (elevated-RBER mix / erasure-hinted, MB/s) ==")
		dt := metrics.NewTable("level", "t", "degraded-decode", "erasure-decode")
		for _, p := range pts {
			dt.Row(float64(p.Level), float64(p.T), p.DegradedDecodeMBPerSec, p.ErasureDecodeMBPerSec)
		}
		dt.Render(os.Stdout)
	}

	if s := pts[0].SyndromeSpeedup; s < minSpeedupL0 {
		return fmt.Errorf("level-0 syndrome speedup %.2fx below the %.0fx floor", s, minSpeedupL0)
	}
	fmt.Printf("level-0 syndrome speedup %.1fx (floor %.0fx)\n", pts[0].SyndromeSpeedup, minSpeedupL0)
	return nil
}
