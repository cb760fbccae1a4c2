package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"salamander/internal/blockdev"
	"salamander/internal/stats"
)

// stressConfig: analytic ECC (fast) but with data stored, so reads verify
// real bytes while the wear model still drives ShrinkS transitions.
func stressConfig() Config {
	cfg := testConfig()
	cfg.RealECC = false
	cfg.Flash.Reliability.NominalPEC = 400
	cfg.Flash.EnduranceCV = 0.1
	cfg.Flash.PageCV = 0.05
	return cfg
}

// stressPattern gives every (minidisk, lba, version) a distinct oPage image.
func stressPattern(buf []byte, md blockdev.MinidiskID, lba int, version byte) {
	b := byte(md)*7 ^ byte(lba)*13 ^ version
	for i := range buf {
		buf[i] = b ^ byte(i*131)
	}
}

// TestConcurrentScrubAndRelease races background scrubs and minidisk
// releases (the ShrinkS decommission path) against host writes. This drives
// the full lifecycle — drain events, regeneration, wear transitions — from
// multiple goroutines at once.
func TestConcurrentScrubAndRelease(t *testing.T) {
	d, _ := mustDevice(t, stressConfig())
	mds := d.Minidisks()
	buf := make([]byte, blockdev.OPageSize)
	for _, m := range mds[:len(mds)/2] {
		for lba := 0; lba < m.LBAs; lba++ {
			stressPattern(buf, m.ID, lba, 1)
			if err := d.Write(m.ID, lba, buf); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 3)

	wg.Add(1)
	go func() { // writer: keeps churning the first half
		defer wg.Done()
		rng := stats.NewRNG(31337)
		buf := make([]byte, blockdev.OPageSize)
		for op := 0; op < 300; op++ {
			m := mds[int(rng.Uint64()%uint64(len(mds)/2))]
			lba := int(rng.Uint64() % uint64(m.LBAs))
			stressPattern(buf, m.ID, lba, byte(op%250)+1)
			err := d.Write(m.ID, lba, buf)
			if err != nil && !errors.Is(err, blockdev.ErrBricked) &&
				!errors.Is(err, blockdev.ErrDeviceFull) && !errors.Is(err, blockdev.ErrNoSuchMinidisk) {
				errCh <- fmt.Errorf("writer: %w", err)
				return
			}
		}
		errCh <- nil
	}()

	wg.Add(1)
	go func() { // scrubber
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := d.Scrub(); err != nil && !errors.Is(err, blockdev.ErrBricked) {
				errCh <- fmt.Errorf("scrub: %w", err)
				return
			}
		}
		errCh <- nil
	}()

	wg.Add(1)
	go func() { // releaser: completes any drains the wear model starts
		defer wg.Done()
		for round := 0; round < 50; round++ {
			for _, m := range d.Minidisks() {
				// Release only succeeds for draining disks; racing against
				// live ones must fail cleanly, never corrupt state.
				err := d.Release(m.ID)
				if err != nil && !errors.Is(err, blockdev.ErrBricked) &&
					!errors.Is(err, blockdev.ErrNoSuchMinidisk) {
					errCh <- fmt.Errorf("release md%d: %w", m.ID, err)
					return
				}
			}
		}
		errCh <- nil
	}()

	wg.Wait()
	for i := 0; i < 3; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
