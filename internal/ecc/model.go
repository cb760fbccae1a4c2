package ecc

import (
	"fmt"
	"sync"

	"salamander/internal/stats"
)

// SectorGeometry describes how a flash page's data and spare areas are
// carved into ECC codewords. Salamander's page-tiredness levels work by
// growing the per-sector spare allocation: a level-L fPage repurposes L of
// its four oPages as additional parity, spread evenly across the sectors of
// the remaining data.
type SectorGeometry struct {
	M          int // GF(2^m) extension degree
	DataBytes  int // payload bytes per codeword (sector)
	SpareBytes int // parity budget per codeword
}

// T returns the correction capability purchasable with the spare budget:
// each correctable bit costs M parity bits.
func (g SectorGeometry) T() int { return g.SpareBytes * 8 / g.M }

// CodewordBits returns the total codeword length n = k + r in bits, using
// the designed (maximal) parity m·t.
func (g SectorGeometry) CodewordBits() int { return g.DataBytes*8 + g.T()*g.M }

// Rate returns the sector-level code rate k/n.
func (g SectorGeometry) Rate() float64 {
	return float64(g.DataBytes*8) / float64(g.CodewordBits())
}

// MaxRBER returns the largest raw bit-error rate at which the per-codeword
// uncorrectable probability stays at or below target (e.g. 1e-15). This is
// the analytic counterpart of running the real BCH decoder against injected
// errors, and the two are cross-validated in tests.
func (g SectorGeometry) MaxRBER(target float64) float64 {
	return stats.MaxCorrectableRBER(int64(g.CodewordBits()), int64(g.T()), target)
}

// UncorrectableProb returns the probability that a codeword read at raw
// bit-error rate rber cannot be corrected.
func (g SectorGeometry) UncorrectableProb(rber float64) float64 {
	return stats.BinomTailGT(int64(g.CodewordBits()), int64(g.T()), rber)
}

// built memoizes Build: SectorGeometry → a sync.OnceValues of build.
var built sync.Map

// Build returns the real BCH code matching this geometry. The code is
// built once per geometry per process and shared by every caller: a Code
// is safe for concurrent use, and its tables (≈0.4 MiB at tiredness level
// 0 to ≈6.5 MiB at level 3) are too large to hold once per device.
func (g SectorGeometry) Build() (*Code, error) {
	once, _ := built.LoadOrStore(g, sync.OnceValues(g.build))
	return once.(func() (*Code, error))()
}

func (g SectorGeometry) build() (*Code, error) {
	c, err := NewCode(g.M, g.DataBytes*8, g.T())
	if err != nil {
		return nil, err
	}
	if c.ParityBytes() > g.SpareBytes {
		return nil, fmt.Errorf("ecc: geometry %+v needs %d parity bytes, budget %d",
			g, c.ParityBytes(), g.SpareBytes)
	}
	return c, nil
}

// String renders the geometry compactly for logs and tables.
func (g SectorGeometry) String() string {
	return fmt.Sprintf("BCH(m=%d k=%dB spare=%dB t=%d rate=%.3f)",
		g.M, g.DataBytes, g.SpareBytes, g.T(), g.Rate())
}
