package core

import (
	"bytes"
	"testing"

	"salamander/internal/blockdev"
)

func TestScrubCleanDevice(t *testing.T) {
	d, _ := mustDevice(t, testConfig())
	for lba := 0; lba < 32; lba++ {
		if err := d.Write(0, lba%16, pattern(byte(lba))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := d.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned == 0 {
		t.Fatal("scrub scanned nothing")
	}
	if rep.Lost != 0 {
		t.Errorf("fresh device lost %d oPages", rep.Lost)
	}
	if rep.Refreshed != 0 {
		t.Errorf("fresh device refreshed %d oPages", rep.Refreshed)
	}
	checkInvariants(t, d)
}

// TestScrubRefreshesDisturbedPages: heavy read disturb pushes pages toward
// the ECC ceiling; a scrub rewrites that data onto fresh pages, resetting
// the effective error rate.
func TestScrubRefreshesDisturbedPages(t *testing.T) {
	cfg := testConfig()
	cfg.RealECC = false
	cfg.Flash.StoreData = false
	cfg.MaxReadRetries = 0
	cfg.Flash.ReadDisturbRBER = 5e-6
	d, _ := mustDevice(t, cfg)
	buf := make([]byte, blockdev.OPageSize)
	for lba := 0; lba < 16; lba++ {
		if err := d.Write(0, lba, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	// Hammer reads to accumulate disturb on the data's blocks.
	for i := 0; i < 30000; i++ {
		_ = d.Read(0, i%16, buf)
	}
	rep, err := d.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Refreshed == 0 && rep.Lost == 0 {
		t.Fatal("scrub neither refreshed nor reported loss under heavy disturb")
	}
	// A second scrub right after sees (mostly) healthy pages again.
	rep2, err := d.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Refreshed >= rep.Refreshed && rep.Refreshed > 0 {
		t.Errorf("refresh did not reset drift: %d then %d", rep.Refreshed, rep2.Refreshed)
	}
	checkInvariants(t, d)
}

// TestScrubPreservesData: scrubbing with real ECC must not alter contents.
func TestScrubPreservesData(t *testing.T) {
	d, _ := mustDevice(t, testConfig())
	want := map[int][]byte{}
	for lba := 0; lba < 16; lba++ {
		want[lba] = pattern(byte(lba * 3))
		if err := d.Write(1, lba, want[lba]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Scrub(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockdev.OPageSize)
	for lba, w := range want {
		if err := d.Read(1, lba, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("lba %d altered by scrub", lba)
		}
	}
}
