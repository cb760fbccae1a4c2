package flash

import "testing"

// stuckConfig enables the grown stuck-column model at a rate high enough
// that a single erase grows columns (count = rate * pec / NominalPEC).
func stuckConfig(rate float64) Config {
	cfg := smallConfig()
	cfg.EnduranceCV = 0
	cfg.PageCV = 0
	cfg.StuckColumnsPerNominalPEC = rate
	return cfg
}

func TestStuckColumnsDisabledByDefault(t *testing.T) {
	a := mustArray(t, smallConfig())
	g := a.Geometry()
	if _, err := a.Program(PPA{0, 0}, rawPage(g, 0x5A)); err != nil {
		t.Fatal(err)
	}
	res, err := a.Read(PPA{0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stuck != nil {
		t.Errorf("default config reported stuck columns: %v", res.Stuck)
	}
	if cols := stuckColumns(a, 0); cols != nil {
		t.Errorf("stuck columns with model off: %v", cols)
	}
}

func TestStuckColumnsGrowWithWearAndForceValues(t *testing.T) {
	rate := 4 * DefaultConfig().Reliability.NominalPEC // 4 columns per cycle
	a := mustArray(t, stuckConfig(rate))
	g := a.Geometry()

	// Fresh block (pec=0): nothing stuck yet.
	if cols := stuckColumns(a, 0); len(cols) != 0 {
		t.Fatalf("fresh block has stuck columns: %v", cols)
	}

	// Cycle twice: expect 8 distinct columns, and the first 4 must be a
	// stable prefix (the i-th column to fail never moves).
	if _, err := a.Erase(0); err != nil {
		t.Fatal(err)
	}
	first := stuckColumns(a, 0)
	if len(first) != 4 {
		t.Fatalf("after 1 cycle: %d columns, want 4", len(first))
	}
	if _, err := a.Erase(0); err != nil {
		t.Fatal(err)
	}
	second := stuckColumns(a, 0)
	if len(second) != 8 {
		t.Fatalf("after 2 cycles: %d columns, want 8", len(second))
	}
	seen := map[int]bool{}
	for i, p := range second {
		if p < 0 || p >= g.RawPageBytes()*8 {
			t.Fatalf("column %d out of page range", p)
		}
		if seen[p] {
			t.Fatalf("duplicate stuck column %d", p)
		}
		seen[p] = true
		if i < len(first) && first[i] != p {
			t.Fatalf("column ordinal %d moved: %d -> %d", i, first[i], p)
		}
	}

	// Reads report the same positions and force each bit to its stuck
	// value — on every page of the block (column defects span bit-lines).
	for pg := 0; pg < 2; pg++ {
		if _, err := a.Program(PPA{0, pg}, rawPage(g, 0xFF)); err != nil {
			t.Fatal(err)
		}
		res, err := a.Read(PPA{0, pg}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Stuck) != len(second) {
			t.Fatalf("page %d read reported %d stuck, want %d", pg, len(res.Stuck), len(second))
		}
		for i, bit := range res.Stuck {
			if bit != second[i] {
				t.Fatalf("page %d stuck[%d] = %d, want %d", pg, i, bit, second[i])
			}
			got := res.Data[bit/8]&(1<<uint(bit%8)) != 0
			if got != a.stuckValue(0, bit) {
				t.Errorf("page %d bit %d not forced to stuck value", pg, bit)
			}
		}
	}

	// Another block draws different positions (seed-and-block derived).
	if _, err := a.Erase(1); err != nil {
		t.Fatal(err)
	}
	other := stuckColumns(a, 1)
	same := 0
	for _, p := range other {
		if seen[p] {
			same++
		}
	}
	if len(other) == same && len(other) > 0 {
		t.Error("block 1 stuck columns identical to block 0")
	}
}

// TestPreWornPECStartsTired pins the degraded-fleet knob: every block starts
// at the configured cycle count, so wear-driven models (stuck columns here)
// are active from the first operation instead of after thousands of erases.
func TestPreWornPECStartsTired(t *testing.T) {
	cfg := stuckConfig(8) // 8 columns at nominal PEC
	cfg.PreWornPEC = uint32(DefaultConfig().Reliability.NominalPEC / 2)
	a := mustArray(t, cfg)
	if got := a.BlockPEC(0); got != cfg.PreWornPEC {
		t.Fatalf("BlockPEC = %d, want %d", got, cfg.PreWornPEC)
	}
	// Half the nominal wear means half the stuck-column budget, pre-grown.
	if cols := stuckColumns(a, 0); len(cols) != 4 {
		t.Fatalf("pre-worn block has %d stuck columns, want 4", len(cols))
	}
	if _, err := a.Erase(0); err != nil {
		t.Fatalf("pre-worn block failed its first erase: %v", err)
	}
	if got := a.BlockPEC(0); got != cfg.PreWornPEC+1 {
		t.Fatalf("BlockPEC after erase = %d, want %d", got, cfg.PreWornPEC+1)
	}
}

// TestStuckModelPreservesFlipDeterminism pins the zero-RNG-consumption
// contract: enabling the stuck-column model must not perturb the sampled
// bit-error sequence, so chaos runs with and without the model stay
// byte-identical on every non-stuck bit.
func TestStuckModelPreservesFlipDeterminism(t *testing.T) {
	run := func(rate float64) (Stats, int) {
		cfg := stuckConfig(rate)
		cfg.Seed = 99
		a := mustArray(t, cfg)
		g := a.Geometry()
		flips := 0
		if _, err := a.Erase(0); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Program(PPA{0, 0}, rawPage(g, 0x33)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			res, err := a.Read(PPA{0, 0}, 0)
			if err != nil {
				t.Fatal(err)
			}
			flips += res.Flips
		}
		return a.Stats(), flips
	}
	offStats, offFlips := run(0)
	onStats, onFlips := run(8 * DefaultConfig().Reliability.NominalPEC)
	if offFlips != onFlips {
		t.Errorf("flip sequence diverged: %d without model, %d with", offFlips, onFlips)
	}
	if offStats.InjectedFlips != onStats.InjectedFlips {
		t.Errorf("injected flips diverged: %+v vs %+v", offStats, onStats)
	}
}

// stuckColumns returns a block's current grown stuck bit positions.
func stuckColumns(a *Array, block int) []int {
	return a.stuckColumnsLocked(block, &a.blocks[block])
}
