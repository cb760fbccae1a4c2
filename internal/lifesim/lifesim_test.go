package lifesim

import (
	"math"
	"testing"
)

// fastConfig shrinks the fleet for quick tests.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Devices = 16
	cfg.BlocksPerDevice = 64
	cfg.StepDays = 10
	return cfg
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestValidation(t *testing.T) {
	for i, mutate := range []func(*Config){
		func(c *Config) { c.Devices = 0 },
		func(c *Config) { c.DWPD = 0 },
		func(c *Config) { c.RetireCapacity = 0 },
		func(c *Config) { c.RetireCapacity = 1.5 },
		func(c *Config) { c.StepDays = 0 },
		func(c *Config) { c.MaxLevel = 9 },
	} {
		cfg := fastConfig()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestBaselineFleetDies(t *testing.T) {
	cfg := fastConfig()
	r := mustRun(t, cfg)
	if r.Alive[len(r.Alive)-1] != 0 {
		t.Fatal("baseline fleet never died within MaxDays")
	}
	if r.MeanLifetimeDays <= 0 {
		t.Fatal("zero mean lifetime")
	}
	// Baseline capacity is all-or-nothing: while alive it contributes 1.
	for i, a := range r.Alive {
		want := float64(a) / float64(cfg.Devices)
		if math.Abs(r.CapacityFrac[i]-want) > 1e-9 {
			t.Fatalf("baseline capacity %v != alive fraction %v at step %d",
				r.CapacityFrac[i], want, i)
		}
	}
	// Recovery volume: everything fails exactly once.
	if math.Abs(r.RecoveryVolumeRel-1) > 0.01 {
		t.Errorf("baseline recovery volume %v, want 1", r.RecoveryVolumeRel)
	}
}

func TestAliveMonotoneNonIncreasing(t *testing.T) {
	for _, mode := range []Mode{Baseline, ShrinkS, RegenS} {
		cfg := fastConfig()
		cfg.Mode = mode
		r := mustRun(t, cfg)
		for i := 1; i < len(r.Alive); i++ {
			if r.Alive[i] > r.Alive[i-1] {
				t.Fatalf("%v: alive count increased at step %d", mode, i)
			}
		}
	}
}

// TestLifetimeOrdering is the headline claim: baseline < ShrinkS < RegenS,
// with ShrinkS >= ~1.2x and RegenS in the vicinity of the paper's 1.5x.
func TestLifetimeOrdering(t *testing.T) {
	cfg := fastConfig()
	sf, err := LifetimeFactor(cfg, ShrinkS)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := LifetimeFactor(cfg, RegenS)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("lifetime factors: shrinkS=%.3f regenS=%.3f", sf, rf)
	if sf <= 1.1 {
		t.Errorf("ShrinkS factor %v, want > 1.1 (paper: >= 1.2)", sf)
	}
	if rf <= sf {
		t.Errorf("RegenS factor %v not above ShrinkS %v", rf, sf)
	}
	if rf < 1.3 || rf > 2.2 {
		t.Errorf("RegenS factor %v far outside the paper's regime (~1.5)", rf)
	}
}

// TestFig3Shape: RegenS's survivor curve must decline later and flatter
// than baseline's (Fig. 3a), and its capacity curve must decline gradually
// rather than in device-sized cliffs (Fig. 3b).
func TestFig3Shape(t *testing.T) {
	cfg := fastConfig()
	base := mustRun(t, cfg)
	cfg.Mode = RegenS
	regen := mustRun(t, cfg)

	// First death later for RegenS.
	firstDeath := func(r *Result) float64 {
		for i, a := range r.Alive {
			if a < r.Config.Devices {
				return r.Days[i]
			}
		}
		return math.Inf(1)
	}
	if firstDeath(regen) <= firstDeath(base) {
		t.Errorf("RegenS first death at %v not after baseline's %v",
			firstDeath(regen), firstDeath(base))
	}
	// Fleet extinction later too.
	if regen.Days[len(regen.Days)-1] <= base.Days[len(base.Days)-1] {
		t.Error("RegenS fleet did not outlive baseline fleet")
	}
	// Baseline capacity is a step function of deaths; RegenS shows
	// intermediate (fractional-per-device) capacities before each death —
	// check some capacity value strictly between alive-count steps exists.
	gradual := false
	for i := range regen.Alive {
		aliveFrac := float64(regen.Alive[i]) / float64(cfg.Devices)
		if regen.Alive[i] > 0 && regen.CapacityFrac[i] < aliveFrac-1e-6 {
			gradual = true
			break
		}
	}
	if !gradual {
		t.Error("RegenS capacity never declined below the alive fraction — no gradual shrink")
	}
}

// TestRecoveryVolume reproduces §4.3: ShrinkS total failed capacity equals
// baseline's (same LBAs fail, spread over time); RegenS fails more because
// regenerated capacity fails again.
func TestRecoveryVolume(t *testing.T) {
	cfg := fastConfig()
	base := mustRun(t, cfg)
	cfg.Mode = ShrinkS
	shrink := mustRun(t, cfg)
	cfg.Mode = RegenS
	regen := mustRun(t, cfg)
	if math.Abs(shrink.RecoveryVolumeRel-base.RecoveryVolumeRel) > 0.05 {
		t.Errorf("ShrinkS recovery volume %v vs baseline %v, want comparable",
			shrink.RecoveryVolumeRel, base.RecoveryVolumeRel)
	}
	if regen.RecoveryVolumeRel <= shrink.RecoveryVolumeRel+0.1 {
		t.Errorf("RegenS recovery volume %v not clearly above ShrinkS %v",
			regen.RecoveryVolumeRel, shrink.RecoveryVolumeRel)
	}
}

// TestRetireThresholdSweep: deeper retire thresholds extend lifetime and
// lower average shrink-phase capacity — the trade §4.1's 60% number lives
// on.
func TestRetireThresholdSweep(t *testing.T) {
	prevLife := 0.0
	prevCap := 1.1
	for _, thresh := range []float64{0.9, 0.6, 0.3} {
		cfg := fastConfig()
		cfg.Mode = RegenS
		cfg.RetireCapacity = thresh
		r := mustRun(t, cfg)
		if r.MeanLifetimeDays < prevLife {
			t.Errorf("threshold %v: lifetime %v decreased", thresh, r.MeanLifetimeDays)
		}
		if r.MeanShrinkCapacity > prevCap {
			t.Errorf("threshold %v: shrink capacity %v increased", thresh, r.MeanShrinkCapacity)
		}
		prevLife = r.MeanLifetimeDays
		prevCap = r.MeanShrinkCapacity
	}
}

func TestAFRKillsEarly(t *testing.T) {
	cfg := fastConfig()
	cfg.AFR = 2.0 // absurd 200%/year to force random deaths
	r := mustRun(t, cfg)
	noAFR := fastConfig()
	r2 := mustRun(t, noAFR)
	if r.MeanLifetimeDays >= r2.MeanLifetimeDays {
		t.Errorf("AFR=2 lifetime %v not below wear-only %v",
			r.MeanLifetimeDays, r2.MeanLifetimeDays)
	}
}

func TestDWPDScalesLifetime(t *testing.T) {
	slow := fastConfig()
	slow.DWPD = 0.5
	fast := fastConfig()
	fast.DWPD = 2
	rs := mustRun(t, slow)
	rf := mustRun(t, fast)
	ratio := rs.MeanLifetimeDays / rf.MeanLifetimeDays
	if ratio < 3 || ratio > 5 {
		t.Errorf("4x load ratio produced lifetime ratio %v, want ~4", ratio)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := fastConfig()
	cfg.Mode = RegenS
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a.MeanLifetimeDays != b.MeanLifetimeDays ||
		a.RecoveryVolumeRel != b.RecoveryVolumeRel {
		t.Fatal("same-seed runs diverged")
	}
}

func TestModeString(t *testing.T) {
	if Baseline.String() != "baseline" || ShrinkS.String() != "shrinkS" ||
		RegenS.String() != "regenS" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode string empty")
	}
}

func TestShrinkCapacityMetrics(t *testing.T) {
	cfg := fastConfig()
	cfg.Mode = RegenS
	r := mustRun(t, cfg)
	if r.MeanShrinkCapacity <= 0 || r.MeanShrinkCapacity > 1 {
		t.Errorf("shrink capacity %v out of (0,1]", r.MeanShrinkCapacity)
	}
	if r.MeanLifetimeCapacity <= r.MeanShrinkCapacity-1e-9 {
		t.Errorf("lifetime capacity %v below shrink-phase capacity %v",
			r.MeanLifetimeCapacity, r.MeanShrinkCapacity)
	}
}
