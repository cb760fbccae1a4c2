// Package rber models flash media reliability: how the raw bit-error rate
// (RBER) grows with program/erase cycles (PEC), and what that implies for
// Salamander's page-tiredness ladder.
//
// The paper (§4, Fig. 2) combines two published models — RBER growth with
// wear [Kim et al., FAST'19] and the code-rate ↔ correction-capability
// relationship for BCH [Marelli & Micheloni] — and anchors the result at
// "a 50% potential lifetime benefit for L1". We reproduce that construction:
// the per-level maximum tolerable RBER comes from the real ECC geometry
// (internal/ecc) under a UBER target, and the RBER(PEC) power-law exponent
// is calibrated so the L1 anchor holds exactly. Everything else (L2/L3
// benefits, their diminishing returns, the per-level PEC thresholds used by
// the device and fleet simulators) then follows from the model rather than
// from hard-coded numbers.
package rber

import (
	"fmt"
	"math"

	"salamander/internal/ecc"
)

// Flash page geometry shared across the repository (§3: 16KB fPage housing
// four 4KB oPages, 2KB spare, 512B ECC sectors).
const (
	FPageSize      = 16 * 1024 // bytes of data in a fresh fPage
	OPageSize      = 4 * 1024  // logical (OS) page
	OPagesPerFPage = FPageSize / OPageSize
	SpareSize      = 2 * 1024 // per-fPage spare area at L0 (code rate 8/9)
	SectorSize     = 512      // ECC codeword payload

	// MaxUsableLevel is the highest tiredness level that still stores data:
	// L(fPage) counts oPages repurposed as ECC, so L4 stores nothing.
	MaxUsableLevel = OPagesPerFPage - 1

	// DeadLevel marks an fPage that can no longer store data reliably.
	DeadLevel = OPagesPerFPage
)

// levelFieldM[L] is the GF(2^m) extension degree for level L's sector code.
// Higher levels carry so much parity per 512B sector that the codeword
// outgrows GF(2^13) (n <= 8191 bits); they step up to wider fields.
var levelFieldM = [MaxUsableLevel + 1]int{13, 13, 14, 15}

// LevelGeometry returns the ECC sector geometry of a tiredness-level-L
// fPage: L of the four oPages are repurposed as parity, spread evenly over
// the sectors of the remaining data.
func LevelGeometry(level int) ecc.SectorGeometry {
	if level < 0 || level > MaxUsableLevel {
		panic(fmt.Sprintf("rber: no geometry for tiredness level %d", level))
	}
	dataSectors := (FPageSize - level*OPageSize) / SectorSize
	spareTotal := SpareSize + level*OPageSize
	return ecc.SectorGeometry{
		M:          levelFieldM[level],
		DataBytes:  SectorSize,
		SpareBytes: spareTotal / dataSectors,
	}
}

// LevelDataBytes returns the data capacity of a level-L fPage.
func LevelDataBytes(level int) int {
	if level >= DeadLevel {
		return 0
	}
	return FPageSize - level*OPageSize
}

// Params configures the reliability model.
type Params struct {
	// RBER0 is the raw bit-error rate of pristine flash.
	RBER0 float64
	// NominalPEC is the vendor-rated P/E cycle limit, i.e. the wear at
	// which an L0 page's RBER reaches the L0 ECC's correction ceiling.
	NominalPEC float64
	// UBERTarget is the acceptable per-codeword uncorrectable probability
	// (typically 1e-15).
	UBERTarget float64
}

// DefaultParams are representative of 3D TLC NAND: fresh RBER ~1e-6,
// 3000-cycle rating, 1e-15 UBER target.
func DefaultParams() Params {
	return Params{RBER0: 1e-6, NominalPEC: 3000, UBERTarget: 1e-15}
}

// LevelSpec describes one rung of the tiredness ladder.
type LevelSpec struct {
	Level     int
	Geometry  ecc.SectorGeometry
	CodeRate  float64
	MaxRBER   float64 // highest RBER the level's ECC tolerates at the UBER target
	PECLimit  float64 // wear at which RBER reaches MaxRBER
	Benefit   float64 // PECLimit / L0's PECLimit (Fig. 2's y-axis)
	DataBytes int     // usable data per fPage at this level
}

// Model is the calibrated reliability model.
type Model struct {
	Params
	Beta   float64 // RBER growth exponent (calibrated)
	Coef   float64 // RBER growth coefficient
	levels [MaxUsableLevel + 1]LevelSpec
}

// New calibrates a model: per-level RBER ceilings come from the ECC
// geometries; Beta is solved so L1's PEC benefit is exactly +50% (the
// paper's Fig. 2 anchor); Coef is solved so L0's PEC limit equals
// NominalPEC.
func New(p Params) (*Model, error) {
	if p.RBER0 < 0 || p.NominalPEC <= 0 || p.UBERTarget <= 0 {
		return nil, fmt.Errorf("rber: invalid params %+v", p)
	}
	m := &Model{Params: p}
	var ceil [MaxUsableLevel + 1]float64
	for l := 0; l <= MaxUsableLevel; l++ {
		g := LevelGeometry(l)
		ceil[l] = g.MaxRBER(p.UBERTarget)
		if ceil[l] <= p.RBER0 {
			return nil, fmt.Errorf("rber: level %d ECC ceiling %.3g below fresh RBER %.3g",
				l, ceil[l], p.RBER0)
		}
	}
	// Anchor: (ceil1/ceil0)^(1/beta) = 1.5  (in the wear-dominated regime
	// where RBER0 is negligible against the ceilings).
	m.Beta = math.Log(ceil[1]/ceil[0]) / math.Log(1.5)
	m.Coef = (ceil[0] - p.RBER0) / math.Pow(p.NominalPEC, m.Beta)
	for l := 0; l <= MaxUsableLevel; l++ {
		g := LevelGeometry(l)
		limit := m.PECAt(ceil[l])
		m.levels[l] = LevelSpec{
			Level:     l,
			Geometry:  g,
			CodeRate:  g.Rate(),
			MaxRBER:   ceil[l],
			PECLimit:  limit,
			Benefit:   limit / m.PECAt(ceil[0]),
			DataBytes: LevelDataBytes(l),
		}
	}
	return m, nil
}

// RBER returns the raw bit-error rate after pec program/erase cycles.
func (m *Model) RBER(pec float64) float64 {
	if pec <= 0 {
		return m.RBER0
	}
	return m.RBER0 + m.Coef*math.Pow(pec, m.Beta)
}

// PECAt inverts RBER: the wear at which the bit-error rate reaches rber.
func (m *Model) PECAt(rber float64) float64 {
	if rber <= m.RBER0 {
		return 0
	}
	return math.Pow((rber-m.RBER0)/m.Coef, 1/m.Beta)
}

// Level returns the LevelSpec for tiredness level l (0..MaxUsableLevel).
func (m *Model) Level(l int) LevelSpec {
	if l < 0 || l > MaxUsableLevel {
		panic(fmt.Sprintf("rber: level %d out of range", l))
	}
	return m.levels[l]
}

// Levels returns all usable level specs, L0 first — this is Fig. 2's data.
func (m *Model) Levels() []LevelSpec {
	out := make([]LevelSpec, len(m.levels))
	copy(out, m.levels[:])
	return out
}

// LevelFor returns the lowest tiredness level whose ECC still covers a page
// with the given wear, or DeadLevel if none does. An endurance scale factor
// multiplies the level PEC limits, modelling per-block endurance variance
// (a block with scale 1.1 lasts 10% longer than nominal at every level).
func (m *Model) LevelFor(pec, enduranceScale float64) int {
	for l := 0; l <= MaxUsableLevel; l++ {
		if pec <= m.levels[l].PECLimit*enduranceScale {
			return l
		}
	}
	return DeadLevel
}

// --- alternative ECC-family ceilings (LDPC) --------------------------------

// H2 is the binary entropy function (bits).
func H2(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// H2Inv returns the p in [0, 1/2] with H2(p) = target (target in [0,1]),
// by bisection.
func H2Inv(target float64) float64 {
	if target <= 0 {
		return 0
	}
	if target >= 1 {
		return 0.5
	}
	lo, hi := 0.0, 0.5
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if H2(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// LDPCMaxRBER returns the highest hard-decision raw bit-error rate a
// rate-r LDPC code can sustain, modeled as operating at a fraction eta of
// the binary-symmetric-channel Shannon limit: H2(p) = eta * (1 - r).
// Production flash LDPC implementations reach eta ~ 0.85-0.95 [44,45]; the
// paper's analysis uses BCH-style bounded-distance numbers, so this model
// feeds the ECC-family ablation rather than the headline figures.
func LDPCMaxRBER(rate, eta float64) float64 {
	if rate <= 0 || rate >= 1 {
		return 0
	}
	return H2Inv(eta * (1 - rate))
}

// NewWithCeilings calibrates a model from explicit per-level RBER ceilings
// (e.g. the LDPC model's) instead of the built-in BCH geometries, using the
// same Fig. 2 anchoring: Beta solves ceil[1]/ceil[0] = 1.5^Beta and Coef
// pins L0 to NominalPEC.
func NewWithCeilings(p Params, ceilings []float64) (*Model, error) {
	if len(ceilings) != MaxUsableLevel+1 {
		return nil, fmt.Errorf("rber: want %d ceilings, got %d", MaxUsableLevel+1, len(ceilings))
	}
	if p.RBER0 < 0 || p.NominalPEC <= 0 || p.UBERTarget <= 0 {
		return nil, fmt.Errorf("rber: invalid params %+v", p)
	}
	m := &Model{Params: p}
	for l, c := range ceilings {
		if c <= p.RBER0 {
			return nil, fmt.Errorf("rber: level %d ceiling %.3g below fresh RBER %.3g", l, c, p.RBER0)
		}
		if l > 0 && c <= ceilings[l-1] {
			return nil, fmt.Errorf("rber: ceilings must increase with level")
		}
	}
	m.Beta = math.Log(ceilings[1]/ceilings[0]) / math.Log(1.5)
	m.Coef = (ceilings[0] - p.RBER0) / math.Pow(p.NominalPEC, m.Beta)
	for l := 0; l <= MaxUsableLevel; l++ {
		g := LevelGeometry(l)
		limit := m.PECAt(ceilings[l])
		m.levels[l] = LevelSpec{
			Level:     l,
			Geometry:  g,
			CodeRate:  g.Rate(),
			MaxRBER:   ceilings[l],
			PECLimit:  limit,
			Benefit:   limit / m.PECAt(ceilings[0]),
			DataBytes: LevelDataBytes(l),
		}
	}
	return m, nil
}

// LDPCCeilings returns the tiredness-ladder RBER ceilings under the LDPC
// model at efficiency eta, one per usable level.
func LDPCCeilings(eta float64) []float64 {
	out := make([]float64, MaxUsableLevel+1)
	for l := 0; l <= MaxUsableLevel; l++ {
		out[l] = LDPCMaxRBER(LevelGeometry(l).Rate(), eta)
	}
	return out
}
