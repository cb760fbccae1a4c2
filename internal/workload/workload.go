// Package workload provides the access-pattern generators used by the
// examples, CLIs, and benchmark harness: uniform, zipfian and hot-spot key
// streams, read/write mixes, and a device ager.
package workload

import (
	"errors"

	"salamander/internal/blockdev"
	"salamander/internal/stats"
)

// Op is one oPage-granular device operation.
type Op struct {
	Read bool
	LBA  int
}

// Generator produces an endless operation stream.
type Generator interface {
	Next() Op
}

// --- basic generators --------------------------------------------------------

// Uniform picks LBAs uniformly from [0, Space).
type Uniform struct {
	Space int
	Rng   *stats.RNG
}

// Next implements Generator.
func (u *Uniform) Next() Op {
	return Op{LBA: u.Rng.Intn(u.Space)}
}

// Zipfian picks LBAs with zipfian skew (hot head), the standard model for
// skewed datacenter traffic.
type Zipfian struct {
	z *stats.Zipf
}

// NewZipfian builds a zipfian generator over space LBAs with skew s.
func NewZipfian(rng *stats.RNG, space int, s float64) *Zipfian {
	return &Zipfian{z: stats.NewZipf(rng, space, s)}
}

// Next implements Generator.
func (z *Zipfian) Next() Op {
	return Op{LBA: z.z.Next()}
}

// HotSpot sends HotFrac of accesses to a hot head of HotSpace LBAs and the
// rest uniformly over the whole space — the classic two-tier skew model
// (e.g. "90% of ops hit 10% of the data") complementing Zipfian's power
// law. The hot head overlaps the cold range, like a cache-resident working
// set does.
type HotSpot struct {
	Space    int
	HotSpace int     // size of the hot head in LBAs (clamped to Space)
	HotFrac  float64 // fraction of ops aimed at the hot head
	Rng      *stats.RNG
}

// Next implements Generator.
func (h *HotSpot) Next() Op {
	hot := h.HotSpace
	if hot <= 0 || hot > h.Space {
		hot = h.Space
	}
	if h.Rng.Float64() < h.HotFrac {
		return Op{LBA: h.Rng.Intn(hot)}
	}
	return Op{LBA: h.Rng.Intn(h.Space)}
}

// Mix wraps a generator, marking a fraction of operations as reads.
type Mix struct {
	Gen      Generator
	ReadFrac float64
	Rng      *stats.RNG
}

// Next implements Generator.
func (m *Mix) Next() Op {
	op := m.Gen.Next()
	op.Read = m.Rng.Float64() < m.ReadFrac
	return op
}

// Ager overwrites every live minidisk of a device round-robin, the
// full-device wear pattern the lifetime analyses use. It stops early when
// the device retires.
type Ager struct {
	Dev blockdev.Device
	buf []byte
	// Written counts accepted oPage writes.
	Written int64
}

// NewAger returns an ager for dev.
func NewAger(dev blockdev.Device) *Ager {
	return &Ager{Dev: dev, buf: make([]byte, blockdev.OPageSize)}
}

// Round performs one full overwrite sweep. It returns false when the device
// no longer accepts writes (retired/bricked).
func (a *Ager) Round() bool {
	alive := false
	for _, m := range a.Dev.Minidisks() {
		for lba := 0; lba < m.LBAs; lba++ {
			err := a.Dev.Write(m.ID, lba, a.buf)
			switch {
			case err == nil:
				a.Written++
				alive = true
			case errors.Is(err, blockdev.ErrNoSuchMinidisk):
				lba = m.LBAs // disk vanished mid-sweep
			case errors.Is(err, blockdev.ErrBricked),
				errors.Is(err, blockdev.ErrDeviceFull):
				return false
			default:
				return false
			}
		}
	}
	return alive
}
