package main

import (
	"fmt"
	"time"

	"salamander/internal/flash"
	"salamander/internal/rber"
	"salamander/internal/stats"
	"salamander/internal/wire"
)

// Kernels that sit behind a concrete type cannot be wrapped from outside, so
// the traced run drives them directly, on the inputs the workloads give them.
// Every figure is the median of kernelRounds timed batches.
const kernelRounds = 15

// timeMedian times fn kernelRounds times and returns the median duration of
// one call, in the unit per gives (time.Microsecond, time.Nanosecond).
func timeMedian(calls int, per time.Duration, fn func()) float64 {
	samples := make([]float64, kernelRounds)
	for r := range samples {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		samples[r] = float64(time.Since(t0)) / float64(per) / float64(calls)
	}
	return median(samples)
}

// wireKernels times AppendFrame and Decode of the 4 KiB PUT frame every
// workload sends.
func wireKernels(m *metricSet) error {
	payload := make([]byte, objectSize)
	fill(payload, 1, 0, 0, 1)
	fr := wire.Frame{ID: 7, Op: wire.OpPut, Key: []byte("s00-k0000"), Payload: payload}
	buf, err := wire.AppendFrame(nil, &fr)
	if err != nil {
		return err
	}
	m.set("wire.encode_ns", timeMedian(2000, time.Nanosecond, func() {
		buf, _ = wire.AppendFrame(buf[:0], &fr) // this frame encoded just above; it cannot fail now
	}))
	body := buf[4:] // Decode takes the bytes after the length prefix
	var derr error
	m.set("wire.decode_ns", timeMedian(2000, time.Nanosecond, func() {
		if _, err := wire.Decode(body); err != nil {
			derr = err
		}
	}))
	return derr
}

// eccKernels times the BCH codec at tiredness levels 0..2 (the worn fleet's
// MaxLevel), per oPage of 8 sectors: encode, the clean-read check, and a
// decode with errBits flipped bits in every sector — errBits being what the
// traced pass saw per corrected sector.
func eccKernels(m *metricSet, errBits int) error {
	const sectors = rber.OPageSize / rber.SectorSize
	rng := stats.NewRNG(99)
	for level := 0; level <= 2; level++ {
		code, err := rber.LevelGeometry(level).Build()
		if err != nil {
			return err
		}
		dataBytes, pb := rber.LevelDataBytes(level), code.ParityBytes()
		raw := make([]byte, dataBytes+dataBytes/rber.SectorSize*pb)
		for i := 0; i < dataBytes; i++ {
			raw[i] = byte(rng.Uint64())
		}
		var kerr error
		perFPage := timeMedian(4, time.Microsecond, func() {
			if err := code.EncodeSectors(raw, dataBytes, rber.SectorSize); err != nil {
				kerr = err
			}
		})
		m.set(fmt.Sprintf("ecc.encode_us_per_opage.L%d", level), perFPage/float64(dataBytes/rber.OPageSize))

		sector := func(s int) (data, parity []byte) {
			return raw[s*rber.SectorSize : (s+1)*rber.SectorSize], raw[dataBytes+s*pb : dataBytes+(s+1)*pb]
		}
		m.set(fmt.Sprintf("ecc.check_us_per_opage.L%d", level), timeMedian(8, time.Microsecond, func() {
			for s := 0; s < sectors; s++ {
				d, p := sector(s)
				if bits, err := code.Decode(d, p); err != nil || bits != 0 {
					kerr = fmt.Errorf("clean L%d sector decoded to %d bits, %v", level, bits, err)
				}
			}
		}))
		m.set(fmt.Sprintf("ecc.decode_us_per_opage.L%d", level), timeMedian(2, time.Microsecond, func() {
			for s := 0; s < sectors; s++ {
				d, p := sector(s)
				for e := 0; e < errBits; e++ {
					d[(s*37+e*101)%rber.SectorSize] ^= 1 << uint(e%8)
				}
				if bits, err := code.Decode(d, p); err != nil || bits != errBits {
					kerr = fmt.Errorf("L%d sector with %d flips decoded to %d bits, %v", level, errBits, bits, err)
				}
			}
		}))
		if kerr != nil {
			return kerr
		}
	}
	return nil
}

// flashKernels times the host cost of programming and reading pages of one
// pre-worn array, configured like node 0 of the worn fleet.
func flashKernels(m *metricSet, wear float64) error {
	cfg := coreConfig(0, wear, false).Flash
	arr, err := flash.New(cfg)
	if err != nil {
		return err
	}
	g := cfg.Geometry
	raw := make([]byte, g.RawPageBytes())
	fill(raw[:g.PageSize], 1, 0, 0, 1)
	var kerr error
	next := 0 // pages are programmed once each, in block order
	ppa := func(n int) flash.PPA { return flash.PPA{Block: n / g.PagesPerBlock, Page: n % g.PagesPerBlock} }
	perRound := g.TotalPages() / kernelRounds
	m.set("flash.program_us_per_page", timeMedian(perRound, time.Microsecond, func() {
		if _, err := arr.Program(ppa(next), raw); err != nil {
			kerr = err
		}
		next++
	}))
	// An oPage read transfers its data plus its sectors' level-0 parity.
	l0, err := rber.LevelGeometry(0).Build()
	if err != nil {
		return err
	}
	transfer := rber.OPageSize + rber.OPageSize/rber.SectorSize*l0.ParityBytes()
	dst := make([]byte, g.RawPageBytes())
	n := 0
	m.set("flash.read_us_per_page", timeMedian(perRound, time.Microsecond, func() {
		if _, err := arr.ReadInto(ppa(n%next), transfer, dst); err != nil {
			kerr = err
		}
		n++
	}))
	return kerr
}
