package ssd

import (
	"bytes"
	"errors"
	"testing"

	"salamander/internal/blockdev"
	"salamander/internal/flash"
	"salamander/internal/rber"
	"salamander/internal/sim"
	"salamander/internal/stats"
)

// testConfig returns a small real-ECC device: 2x8 blocks x 8 pages = 8 MiB.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Flash.Geometry = flash.Geometry{
		Channels:      2,
		BlocksPerChan: 8,
		PagesPerBlock: 8,
		PageSize:      rber.FPageSize,
		SpareSize:     rber.SpareSize,
	}
	return cfg
}

// agingConfig returns a metadata-only device with tiny endurance so wear
// effects appear quickly.
func agingConfig(nominalPEC float64) Config {
	cfg := testConfig()
	cfg.RealECC = false
	cfg.Flash.StoreData = false
	cfg.Flash.Reliability.NominalPEC = nominalPEC
	cfg.Flash.EnduranceCV = 0.1
	cfg.Flash.PageCV = 0.05
	return cfg
}

func mustDevice(t *testing.T, cfg Config) (*Device, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	d, err := New(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	return d, eng
}

func pattern(seed byte) []byte {
	buf := make([]byte, blockdev.OPageSize)
	for i := range buf {
		buf[i] = seed ^ byte(i*31)
	}
	return buf
}

func TestExportsSingleMinidisk(t *testing.T) {
	d, _ := mustDevice(t, testConfig())
	mds := d.Minidisks()
	if len(mds) != 1 || mds[0].ID != 0 {
		t.Fatalf("minidisks = %+v", mds)
	}
	if mds[0].LBAs != d.lbas {
		t.Errorf("LBAs mismatch: %d vs %d", mds[0].LBAs, d.lbas)
	}
	// Capacity honors over-provisioning.
	raw := d.Array().Geometry().TotalPages() * 4
	if d.lbas >= raw {
		t.Errorf("exported %d oPages >= raw %d", d.lbas, raw)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d, _ := mustDevice(t, testConfig())
	for lba := 0; lba < 32; lba++ {
		if err := d.Write(0, lba, pattern(byte(lba))); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, blockdev.OPageSize)
	for lba := 0; lba < 32; lba++ {
		if err := d.Read(0, lba, got); err != nil {
			t.Fatalf("read lba %d: %v", lba, err)
		}
		if !bytes.Equal(got, pattern(byte(lba))) {
			t.Fatalf("lba %d corrupted", lba)
		}
	}
}

func TestReadFromWriteBuffer(t *testing.T) {
	d, _ := mustDevice(t, testConfig())
	// One write: stays in NV buffer (needs 4 to flush).
	if err := d.Write(0, 5, pattern(9)); err != nil {
		t.Fatal(err)
	}
	if d.Counters().FlashWrites != 0 {
		t.Fatal("single oPage should not have flushed")
	}
	got := make([]byte, blockdev.OPageSize)
	if err := d.Read(0, 5, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(9)) {
		t.Fatal("buffered read wrong")
	}
}

func TestOverwriteReturnsLatest(t *testing.T) {
	d, _ := mustDevice(t, testConfig())
	for round := 0; round < 3; round++ {
		for lba := 0; lba < 16; lba++ {
			if err := d.Write(0, lba, pattern(byte(lba+round*100))); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := make([]byte, blockdev.OPageSize)
	for lba := 0; lba < 16; lba++ {
		if err := d.Read(0, lba, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pattern(byte(lba+200))) {
			t.Fatalf("lba %d stale after overwrite", lba)
		}
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	d, _ := mustDevice(t, testConfig())
	got := pattern(1)
	if err := d.Read(0, 100, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten lba not zero")
		}
	}
}

func TestTrim(t *testing.T) {
	d, _ := mustDevice(t, testConfig())
	for lba := 0; lba < 8; lba++ {
		if err := d.Write(0, lba, pattern(byte(lba))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Trim(0, 3); err != nil {
		t.Fatal(err)
	}
	got := pattern(0xFF)
	if err := d.Read(0, 3, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("trimmed lba not zero")
		}
	}
}

func TestGCReclaimsSpace(t *testing.T) {
	d, _ := mustDevice(t, testConfig())
	// Lay down a cold base, then hammer random hot LBAs: GC victims then
	// hold a mix of live (cold) and dead (overwritten) slots, forcing
	// relocation of the live data.
	base := d.lbas * 3 / 5
	latest := make(map[int]byte)
	for lba := 0; lba < base; lba++ {
		latest[lba] = byte(lba * 7)
		if err := d.Write(0, lba, pattern(latest[lba])); err != nil {
			t.Fatal(err)
		}
	}
	rng := stats.NewRNG(7)
	hot := d.lbas * 2 // enough churn for several GC rounds
	for i := 0; i < hot; i++ {
		lba := rng.Intn(base)
		latest[lba] = byte(i)
		if err := d.Write(0, lba, pattern(latest[lba])); err != nil {
			t.Fatalf("hot write %d: %v", i, err)
		}
	}
	c := d.Counters()
	if c.GCRelocations == 0 {
		t.Error("GC never relocated anything despite heavy overwrite")
	}
	// Write amplification: flash oPage slots programmed per host oPage.
	if wa := float64(c.FlashWrites*rber.OPagesPerFPage) / float64(c.HostWrites); wa <= 1 {
		t.Errorf("write amplification %v, want > 1 under random overwrite", wa)
	}
	// Data still correct after all that churn.
	got := make([]byte, blockdev.OPageSize)
	for lba := 0; lba < base; lba++ {
		if err := d.Read(0, lba, got); err != nil {
			t.Fatalf("post-GC read %d: %v", lba, err)
		}
		if !bytes.Equal(got, pattern(latest[lba])) {
			t.Fatalf("post-GC lba %d has stale data", lba)
		}
	}
}

func TestFillToCapacity(t *testing.T) {
	d, _ := mustDevice(t, testConfig())
	for lba := 0; lba < d.lbas; lba++ {
		if err := d.Write(0, lba, pattern(byte(lba))); err != nil {
			t.Fatalf("fill failed at lba %d/%d: %v", lba, d.lbas, err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockdev.OPageSize)
	for _, lba := range []int{0, d.lbas / 2, d.lbas - 1} {
		if err := d.Read(0, lba, got); err != nil {
			t.Fatalf("read %d: %v", lba, err)
		}
		if !bytes.Equal(got, pattern(byte(lba))) {
			t.Fatalf("lba %d wrong after full fill", lba)
		}
	}
}

// TestBricksAtBadBlockThreshold ages a metadata-only device by overwriting
// until enough blocks tire; the baseline must brick while most of the flash
// is still usable at lower code rates — the paper's core observation.
func TestBricksAtBadBlockThreshold(t *testing.T) {
	d, _ := mustDevice(t, agingConfig(12))
	var events []blockdev.Event
	d.Notify(func(e blockdev.Event) { events = append(events, e) })

	buf := make([]byte, blockdev.OPageSize)
	var err error
	// Overwrite the full logical space repeatedly until the device dies.
	for round := 0; round < 200 && !d.e.Dead(); round++ {
		for lba := 0; lba < d.lbas && !d.e.Dead(); lba++ {
			if err = d.Write(0, lba, buf); err != nil {
				break
			}
		}
	}
	if !d.e.Dead() {
		t.Fatal("device never bricked under sustained wear")
	}
	if len(events) != 1 || events[0].Kind != blockdev.EventBrick {
		t.Fatalf("events = %v", events)
	}
	// The brick must have been triggered by the bad-block threshold, i.e.
	// only a small fraction of blocks were retired at death.
	c := d.Counters()
	total := d.Array().Geometry().TotalBlocks()
	frac := float64(c.BadBlocks) / float64(total)
	if frac > 0.3 {
		t.Errorf("bricked only after %.0f%% of blocks died — threshold not effective", frac*100)
	}
	// All I/O now fails.
	if err := d.Read(0, 0, buf); !errors.Is(err, blockdev.ErrBricked) {
		t.Errorf("read after brick: %v", err)
	}
	if err := d.Write(0, 0, buf); !errors.Is(err, blockdev.ErrBricked) {
		t.Errorf("write after brick: %v", err)
	}
	if d.Minidisks() != nil {
		t.Error("bricked device still lists minidisks")
	}
}

// TestLifetimeWastedAtBrick quantifies §2's observation: at brick time the
// surviving blocks still have wear headroom (the paper's motivation).
func TestLifetimeWastedAtBrick(t *testing.T) {
	cfg := agingConfig(15)
	d, _ := mustDevice(t, cfg)
	buf := make([]byte, blockdev.OPageSize)
	for round := 0; round < 300 && !d.e.Dead(); round++ {
		for lba := 0; lba < d.lbas && !d.e.Dead(); lba++ {
			if d.Write(0, lba, buf) != nil {
				break
			}
		}
	}
	if !d.e.Dead() {
		t.Skip("device survived the aging budget")
	}
	st := d.Array().Stats()
	// Mean PEC at death should be around the nominal limit, not far beyond:
	// the device died with life left in its stronger pages.
	if st.MeanPEC > 3*cfg.Flash.Reliability.NominalPEC {
		t.Errorf("mean PEC at brick = %.0f, implausibly high", st.MeanPEC)
	}
	if st.MeanPEC == 0 {
		t.Error("device bricked without wear?")
	}
}

func TestBaselineConformance(t *testing.T) {
	d, _ := mustDevice(t, testConfig())
	if err := blockdev.CheckConformance(d); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineConcurrencyConformance(t *testing.T) {
	// Analytic ECC (no BCH math on the hot path) with stored data, so
	// read-your-writes is checked on real bytes.
	cfg := testConfig()
	cfg.RealECC = false
	d, _ := mustDevice(t, cfg)
	if err := blockdev.CheckConcurrency(d, 4, 300, 77); err != nil {
		t.Fatal(err)
	}
}
