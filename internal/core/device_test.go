package core

import (
	"bytes"
	"testing"

	"salamander/internal/blockdev"
	"salamander/internal/flash"
	"salamander/internal/rber"
	"salamander/internal/sim"
	"salamander/internal/stats"
)

// testConfig: 2x8 blocks x 8 pages = 8 MiB, real ECC, 64KB minidisks so
// plenty of failure domains exist even on a small device.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Flash.Geometry = flash.Geometry{
		Channels:      2,
		BlocksPerChan: 8,
		PagesPerBlock: 8,
		PageSize:      rber.FPageSize,
		SpareSize:     rber.SpareSize,
	}
	cfg.MSizeOPages = 16 // 64KB minidisks
	return cfg
}

// agingConfig: metadata-only with tiny endurance for wear-driven tests.
func agingConfig(nominalPEC float64, maxLevel int) Config {
	cfg := testConfig()
	cfg.RealECC = false
	cfg.Flash.StoreData = false
	cfg.Flash.Reliability.NominalPEC = nominalPEC
	cfg.Flash.EnduranceCV = 0.1
	cfg.Flash.PageCV = 0.05
	cfg.MaxLevel = maxLevel
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
		buf[i] = seed ^ byte(i*131)
	}
	return buf
}

// checkInvariants asserts the device-wide bookkeeping invariants from
// DESIGN.md §6.
func checkInvariants(t *testing.T, d *Device) {
	t.Helper()
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExposesManyMinidisks(t *testing.T) {
	d, _ := mustDevice(t, testConfig())
	mds := d.Minidisks()
	if len(mds) < 10 {
		t.Fatalf("only %d minidisks on an 8MiB device with 64KB mSize", len(mds))
	}
	total := 0
	for i, m := range mds {
		if int(m.ID) != i {
			t.Errorf("minidisk %d has ID %d", i, m.ID)
		}
		if m.LBAs != 16 || m.Tiredness != 0 {
			t.Errorf("minidisk %d: %+v", i, m)
		}
		total += m.LBAs
	}
	if total != d.LiveLBAs() {
		t.Errorf("sum of minidisk LBAs %d != LiveLBAs %d", total, d.LiveLBAs())
	}
	// Logical capacity leaves the reserve free.
	raw := d.Array().Geometry().TotalPages() * rber.OPagesPerFPage
	if total+d.Reserve() > raw {
		t.Errorf("exported %d + reserve %d exceeds raw %d", total, d.Reserve(), raw)
	}
	checkInvariants(t, d)
}

func TestWriteReadAcrossMinidisks(t *testing.T) {
	d, _ := mustDevice(t, testConfig())
	mds := d.Minidisks()
	for i, m := range mds[:8] {
		for lba := 0; lba < m.LBAs; lba++ {
			if err := d.Write(m.ID, lba, pattern(byte(i*16+lba))); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := make([]byte, blockdev.OPageSize)
	for i, m := range mds[:8] {
		for lba := 0; lba < m.LBAs; lba++ {
			if err := d.Read(m.ID, lba, got); err != nil {
				t.Fatalf("read md %d lba %d: %v", m.ID, lba, err)
			}
			if !bytes.Equal(got, pattern(byte(i*16+lba))) {
				t.Fatalf("md %d lba %d corrupted", m.ID, lba)
			}
		}
	}
	checkInvariants(t, d)
}

func TestMinidiskIsolation(t *testing.T) {
	d, _ := mustDevice(t, testConfig())
	// Same LBA on different minidisks must be independent.
	if err := d.Write(0, 3, pattern(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(1, 3, pattern(2)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockdev.OPageSize)
	if err := d.Read(0, 3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(1)) {
		t.Fatal("md 0 data clobbered by md 1 write")
	}
}

func TestTrimAndZeroReads(t *testing.T) {
	d, _ := mustDevice(t, testConfig())
	if err := d.Write(2, 5, pattern(9)); err != nil {
		t.Fatal(err)
	}
	if err := d.Trim(2, 5); err != nil {
		t.Fatal(err)
	}
	got := pattern(0xFF)
	if err := d.Read(2, 5, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("trimmed lba not zero")
		}
	}
	// Never-written LBA also reads zero.
	if err := d.Read(3, 0, got); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("unwritten lba not zero")
		}
	}
}

func TestGCPreservesDataAcrossMinidisks(t *testing.T) {
	d, _ := mustDevice(t, testConfig())
	mds := d.Minidisks()
	// Fill ~60% of the device, then churn random overwrites.
	nFill := len(mds) * 3 / 5
	latest := map[[2]int]byte{}
	for i := 0; i < nFill; i++ {
		for lba := 0; lba < mds[i].LBAs; lba++ {
			v := byte(i + lba*3)
			latest[[2]int{i, lba}] = v
			if err := d.Write(mds[i].ID, lba, pattern(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := stats.NewRNG(5)
	for i := 0; i < 1200; i++ {
		md := rng.Intn(nFill)
		lba := rng.Intn(16)
		v := byte(i)
		latest[[2]int{md, lba}] = v
		if err := d.Write(mds[md].ID, lba, pattern(v)); err != nil {
			t.Fatalf("churn write %d: %v", i, err)
		}
	}
	if d.Counters().GCRelocations == 0 {
		t.Error("GC never ran despite churn")
	}
	got := make([]byte, blockdev.OPageSize)
	for k, v := range latest {
		if err := d.Read(mds[k[0]].ID, k[1], got); err != nil {
			t.Fatalf("read md %d lba %d: %v", k[0], k[1], err)
		}
		if !bytes.Equal(got, pattern(v)) {
			t.Fatalf("md %d lba %d stale after churn", k[0], k[1])
		}
	}
	checkInvariants(t, d)
}

func TestFlushPartialPage(t *testing.T) {
	d, _ := mustDevice(t, testConfig())
	if err := d.Write(0, 0, pattern(7)); err != nil {
		t.Fatal(err)
	}
	if d.Counters().FlashWrites != 0 {
		t.Fatal("partial page flushed prematurely")
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if d.Counters().FlashWrites != 1 {
		t.Fatalf("Flush programmed %d pages", d.Counters().FlashWrites)
	}
	got := make([]byte, blockdev.OPageSize)
	if err := d.Read(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(7)) {
		t.Fatal("data wrong after padded flush")
	}
	checkInvariants(t, d)
}

func TestSalamanderConformance(t *testing.T) {
	d, _ := mustDevice(t, testConfig())
	if err := blockdev.CheckConformance(d); err != nil {
		t.Fatal(err)
	}
}

func TestSalamanderConcurrencyConformance(t *testing.T) {
	d, _ := mustDevice(t, stressConfig())
	if err := blockdev.CheckConcurrency(d, 4, 300, 77); err != nil {
		t.Fatal(err)
	}
}
