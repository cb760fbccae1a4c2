package cost

import (
	"math"
	"testing"
)

func TestEq4PaperNumbers(t *testing.T) {
	// §4.4: 13% (ShrinkS) and 25% (RegenS) savings at f_opex = 0.14.
	shrink := Params{FOpex: DefaultFOpex, Ru: ShrinkSRu, CENew: DefaultCENew, CapNew: DefaultCapNew}
	regen := Params{FOpex: DefaultFOpex, Ru: RegenSRu, CENew: DefaultCENew, CapNew: DefaultCapNew}
	if s := shrink.Savings(); math.Abs(s-0.13) > 0.015 {
		t.Errorf("ShrinkS savings %.3f, want ~13%%", s)
	}
	if s := regen.Savings(); math.Abs(s-0.25) > 0.02 {
		t.Errorf("RegenS savings %.3f, want ~25%%", s)
	}
}

func TestHighOpexSensitivity(t *testing.T) {
	// "if we assume half the cost is operational costs, Salamander lowers
	// costs by 6-14%".
	shrink := Params{FOpex: 0.5, Ru: ShrinkSRu, CENew: DefaultCENew, CapNew: DefaultCapNew}
	regen := Params{FOpex: 0.5, Ru: RegenSRu, CENew: DefaultCENew, CapNew: DefaultCapNew}
	if s := shrink.Savings(); s < 0.05 || s > 0.10 {
		t.Errorf("ShrinkS at fopex=.5: %.3f, want ~6-8%%", s)
	}
	if s := regen.Savings(); s < 0.12 || s > 0.17 {
		t.Errorf("RegenS at fopex=.5: %.3f, want ~14-15%%", s)
	}
}

func TestCRu(t *testing.T) {
	p := Params{FOpex: DefaultFOpex, Ru: 0.83, CENew: 0.25, CapNew: 0.4}
	want := 0.83 + 0.17*0.25*0.4
	if got := p.CRu(); math.Abs(got-want) > 1e-12 {
		t.Errorf("CRu = %v, want %v", got, want)
	}
	// CRu >= Ru always: the offset drives only add cost.
	for ru := 0.5; ru <= 1.0; ru += 0.1 {
		p.Ru = ru
		if p.CRu() < ru {
			t.Errorf("CRu %v below Ru %v", p.CRu(), ru)
		}
	}
}

func TestSavingsMonotoneInLifetime(t *testing.T) {
	prev := -1.0
	for _, ru := range []float64{1.0, 0.9, 0.8, 0.7, 0.6} {
		p := Params{FOpex: DefaultFOpex, Ru: ru, CENew: DefaultCENew, CapNew: DefaultCapNew}
		s := p.Savings()
		if s < prev {
			t.Fatalf("savings not monotone at Ru=%v", ru)
		}
		prev = s
	}
}

func TestTable(t *testing.T) {
	rows := Table()
	if len(rows) != 4 {
		t.Fatalf("table has %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Savings <= 0 || r.Savings >= 0.5 {
			t.Errorf("%s: savings %v implausible", r.Name, r.Savings)
		}
	}
	// RegenS beats ShrinkS in both opex regimes.
	if rows[1].Savings <= rows[0].Savings || rows[3].Savings <= rows[2].Savings {
		t.Error("RegenS does not beat ShrinkS")
	}
	// Higher opex shrinks the savings.
	if rows[2].Savings >= rows[0].Savings {
		t.Error("higher opex did not reduce savings")
	}
}
