package rber

import (
	"math"
	"testing"
)

func mustModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLevelGeometryLadder(t *testing.T) {
	// L0: 16KB data + 2KB spare; per 512B sector the spare is 64B.
	g0 := LevelGeometry(0)
	if g0.SpareBytes != 64 {
		t.Errorf("L0 spare/sector = %d, want 64", g0.SpareBytes)
	}
	// L1: 12KB data (24 sectors) + 6KB spare => 256B/sector.
	g1 := LevelGeometry(1)
	if g1.SpareBytes != 256 {
		t.Errorf("L1 spare/sector = %d, want 256", g1.SpareBytes)
	}
	// Rates: 8/9, 2/3, ...
	if math.Abs(g0.Rate()-8.0/9.0) > 0.02 {
		t.Errorf("L0 rate = %v", g0.Rate())
	}
	if math.Abs(g1.Rate()-2.0/3.0) > 0.03 {
		t.Errorf("L1 rate = %v", g1.Rate())
	}
}

func TestLevelGeometryPanics(t *testing.T) {
	for _, l := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LevelGeometry(%d) did not panic", l)
				}
			}()
			LevelGeometry(l)
		}()
	}
}

func TestLevelDataBytes(t *testing.T) {
	want := []int{16384, 12288, 8192, 4096}
	for l, w := range want {
		if got := LevelDataBytes(l); got != w {
			t.Errorf("LevelDataBytes(%d) = %d, want %d", l, got, w)
		}
	}
	if LevelDataBytes(DeadLevel) != 0 {
		t.Error("dead level should hold no data")
	}
}

func TestCalibrationAnchor(t *testing.T) {
	m := mustModel(t)
	// L0's PEC limit is the nominal rating.
	if got := m.Level(0).PECLimit; math.Abs(got-3000)/3000 > 0.01 {
		t.Errorf("L0 PEC limit = %v, want ~3000", got)
	}
	// Fig. 2 anchor: L1 benefit = 1.5x (within calibration tolerance — the
	// RBER0 offset makes it approximate, not exact).
	if got := m.Level(1).Benefit; math.Abs(got-1.5) > 0.02 {
		t.Errorf("L1 benefit = %v, want ~1.5", got)
	}
}

func TestFig2Shape(t *testing.T) {
	m := mustModel(t)
	levels := m.Levels()
	if len(levels) != 4 {
		t.Fatalf("levels = %d", len(levels))
	}
	// Benefits increase with level...
	for l := 1; l < len(levels); l++ {
		if levels[l].Benefit <= levels[l-1].Benefit {
			t.Errorf("benefit not increasing at L%d: %v <= %v",
				l, levels[l].Benefit, levels[l-1].Benefit)
		}
	}
	// ...with diminishing marginal gains (Fig. 2's message, which drives
	// the paper's conclusion that RegenS should stop at L<2).
	prevGain := math.Inf(1)
	for l := 1; l < len(levels); l++ {
		gain := levels[l].Benefit - levels[l-1].Benefit
		if gain >= prevGain {
			t.Errorf("marginal benefit at L%d (%v) not diminishing (prev %v)",
				l, gain, prevGain)
		}
		prevGain = gain
	}
	// Code rates fall as 8/9, 2/3, 4/9, 2/9.
	wantRates := []float64{8.0 / 9, 2.0 / 3, 4.0 / 9, 2.0 / 9}
	for l, spec := range levels {
		if math.Abs(spec.CodeRate-wantRates[l]) > 0.03 {
			t.Errorf("L%d code rate %v, want ~%v", l, spec.CodeRate, wantRates[l])
		}
	}
}

func TestRBERMonotoneAndInvertible(t *testing.T) {
	m := mustModel(t)
	prev := 0.0
	for _, pec := range []float64{0, 100, 500, 1000, 3000, 6000} {
		r := m.RBER(pec)
		if r <= prev && pec > 0 {
			t.Fatalf("RBER not increasing at pec=%v", pec)
		}
		prev = r
		// Round trip.
		if pec > 0 {
			back := m.PECAt(r)
			if math.Abs(back-pec)/pec > 1e-6 {
				t.Fatalf("PECAt(RBER(%v)) = %v", pec, back)
			}
		}
	}
	if m.RBER(0) != m.RBER0 {
		t.Error("RBER(0) != RBER0")
	}
	if m.PECAt(m.RBER0/2) != 0 {
		t.Error("PECAt below RBER0 should be 0")
	}
}

func TestLevelFor(t *testing.T) {
	m := mustModel(t)
	if l := m.LevelFor(0, 1); l != 0 {
		t.Errorf("fresh page level = %d", l)
	}
	if l := m.LevelFor(m.Level(0).PECLimit*1.01, 1); l != 1 {
		t.Errorf("just past L0 limit -> level %d, want 1", l)
	}
	if l := m.LevelFor(m.Level(3).PECLimit*1.01, 1); l != DeadLevel {
		t.Errorf("past L3 limit -> level %d, want dead", l)
	}
	// Endurance scale stretches the ladder.
	if l := m.LevelFor(m.Level(0).PECLimit*1.01, 1.2); l != 0 {
		t.Errorf("scaled block should still be L0, got %d", l)
	}
}

func TestLevelPanics(t *testing.T) {
	m := mustModel(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Level(5) did not panic")
		}
	}()
	m.Level(5)
}

func TestNewRejectsBadParams(t *testing.T) {
	bad := []Params{
		{RBER0: -1, NominalPEC: 3000, UBERTarget: 1e-15},
		{RBER0: 1e-6, NominalPEC: 0, UBERTarget: 1e-15},
		{RBER0: 1e-6, NominalPEC: 3000, UBERTarget: 0},
		// Fresh RBER above the L0 ECC ceiling: unusable flash.
		{RBER0: 0.4, NominalPEC: 3000, UBERTarget: 1e-15},
	}
	for i, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("case %d: New(%+v) accepted", i, p)
		}
	}
}

func TestBetaPlausible(t *testing.T) {
	m := mustModel(t)
	// The calibrated exponent should land in the 2-4 range reported for
	// late-life 3D TLC; far outside that means the ECC ladder is broken.
	if m.Beta < 1.5 || m.Beta > 5 {
		t.Errorf("calibrated beta = %v, implausible", m.Beta)
	}
}

func TestH2RoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.3, 0.5} {
		got := H2Inv(H2(p))
		if math.Abs(got-p) > 1e-9 {
			t.Errorf("H2Inv(H2(%v)) = %v", p, got)
		}
	}
	if H2(0.5) != 1 {
		t.Errorf("H2(0.5) = %v", H2(0.5))
	}
	if H2(0) != 0 || H2(1) != 0 {
		t.Error("H2 edge values wrong")
	}
	if H2Inv(0) != 0 || H2Inv(1) != 0.5 {
		t.Error("H2Inv edge values wrong")
	}
}

func TestLDPCBeatsBCHCeilings(t *testing.T) {
	// A capacity-approaching code tolerates more errors than hard-decision
	// BCH at the same rate, at every level.
	bch, err := New(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l <= MaxUsableLevel; l++ {
		ldpc := LDPCMaxRBER(LevelGeometry(l).Rate(), 0.9)
		if ldpc <= bch.Level(l).MaxRBER {
			t.Errorf("L%d: LDPC ceiling %.3g not above BCH %.3g",
				l, ldpc, bch.Level(l).MaxRBER)
		}
	}
}

func TestNewWithCeilingsLDPCLadder(t *testing.T) {
	m, err := NewWithCeilings(DefaultParams(), LDPCCeilings(0.9))
	if err != nil {
		t.Fatal(err)
	}
	// Anchor holds by construction.
	if b := m.Level(1).Benefit; math.Abs(b-1.5) > 0.02 {
		t.Errorf("LDPC L1 benefit = %v", b)
	}
	// Diminishing returns persist under the other code family.
	prevGain := math.Inf(1)
	for l := 1; l <= MaxUsableLevel; l++ {
		gain := m.Level(l).Benefit - m.Level(l-1).Benefit
		if gain >= prevGain {
			t.Errorf("LDPC ladder gain not diminishing at L%d", l)
		}
		prevGain = gain
	}
}

func TestNewWithCeilingsValidation(t *testing.T) {
	p := DefaultParams()
	if _, err := NewWithCeilings(p, []float64{1e-3, 1e-2}); err == nil {
		t.Error("short ceiling slice accepted")
	}
	if _, err := NewWithCeilings(p, []float64{1e-3, 1e-4, 1e-2, 1e-1}); err == nil {
		t.Error("non-increasing ceilings accepted")
	}
	if _, err := NewWithCeilings(p, []float64{1e-9, 1e-2, 2e-2, 3e-2}); err == nil {
		t.Error("ceiling below RBER0 accepted")
	}
}
