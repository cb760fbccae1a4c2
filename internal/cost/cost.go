// Package cost implements the paper's TCO model (§4.4, Eq. 4): the total
// cost of ownership of a Salamander deployment relative to baseline, with
// the cost upgrade rate CRu accounting for the new baseline SSDs purchased
// to offset shrunken capacity.
package cost

// Params are Eq. 4's inputs.
type Params struct {
	// FOpex is the operational fraction of TCO (Seagate: acquisition is
	// ~86% of datacenter device TCO, so FOpex = 0.14).
	FOpex float64
	// Ru is the raw SSD upgrade rate (1/lifetime-factor).
	Ru float64
	// CENew is the cost effectiveness of new baseline SSDs relative to the
	// originals ($/TB/year): SSD $/TB improves ~4x per five-year
	// replacement period, so drives bought when shrinking starts cost 0.25.
	CENew float64
	// CapNew is the fraction of reduced capacity purchased as new baseline
	// SSDs (the paper derives 0.4 from the 60% average shrunk capacity).
	CapNew float64
}

// CRu returns the cost upgrade rate:
//
//	CRu = Ru + (1-Ru)·CE_new·Cap(B_new)
func (p Params) CRu() float64 {
	return p.Ru + (1-p.Ru)*p.CENew*p.CapNew
}

// RelativeTCO evaluates Eq. 4: TCO(S)/TCO(B) = f_opex + (1-f_opex)·CRu.
func (p Params) RelativeTCO() float64 {
	return p.FOpex + (1-p.FOpex)*p.CRu()
}

// Savings returns 1 - RelativeTCO.
func (p Params) Savings() float64 { return 1 - p.RelativeTCO() }

// Defaults from §4.4.
const (
	DefaultFOpex  = 0.14
	DefaultCENew  = 0.25
	DefaultCapNew = 0.4
	ShrinkSRu     = 1 / 1.2 // raw upgrade rates (§4.1)
	RegenSRu      = 1 / 1.5
)

// Scenario is one row of the §4.4 cost table.
type Scenario struct {
	Name    string
	Params  Params
	Savings float64
}

// Table returns the paper's cost results: 13% (ShrinkS) and 25% (RegenS)
// savings at FOpex=0.14, plus the sensitivity rows at FOpex=0.5 (6-14%).
func Table() []Scenario {
	mk := func(name string, fopex, ru float64) Scenario {
		p := Params{FOpex: fopex, Ru: ru, CENew: DefaultCENew, CapNew: DefaultCapNew}
		return Scenario{Name: name, Params: p, Savings: p.Savings()}
	}
	return []Scenario{
		mk("ShrinkS/fopex=0.14", DefaultFOpex, ShrinkSRu),
		mk("RegenS/fopex=0.14", DefaultFOpex, RegenSRu),
		mk("ShrinkS/fopex=0.50", 0.5, ShrinkSRu),
		mk("RegenS/fopex=0.50", 0.5, RegenSRu),
	}
}
