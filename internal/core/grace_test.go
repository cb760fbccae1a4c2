package core

import (
	"bytes"
	"errors"
	"testing"

	"salamander/internal/blockdev"
)

// graceConfig returns an aging config with grace-period decommissioning.
func graceConfig() Config {
	cfg := agingConfig(10, 0)
	cfg.GraceDecommission = true
	return cfg
}

func TestGraceValidation(t *testing.T) {
	cfg := graceConfig()
	// Reserve floor is 4 blocks = 128 oPages; an mSize of 128 would leave
	// less than two minidisks of grace headroom.
	cfg.MSizeOPages = 128
	if _, err := New(cfg, nil); err == nil {
		t.Error("grace config without reserve headroom accepted")
	}
}

// TestDrainThenRelease drives a device to its first drain, verifies the
// grace contract (readable, not writable, hidden from listings), and
// completes the decommission with Release.
func TestDrainThenRelease(t *testing.T) {
	cfg := graceConfig()
	// Real ECC so mid-drain reads verify bit-for-bit (without it, worn
	// pages return uncorrected flips by design).
	cfg.RealECC = true
	cfg.Flash.StoreData = true
	d, _ := mustDevice(t, cfg)

	var drains, decoms []blockdev.MinidiskID
	d.Notify(func(e blockdev.Event) {
		switch e.Kind {
		case blockdev.EventDrain:
			drains = append(drains, e.Minidisk)
		case blockdev.EventDecommission:
			decoms = append(decoms, e.Minidisk)
		}
	})

	// Keep per-LBA payloads so we can verify the draining disk's content.
	// React to the first drain immediately (a prompt host would): aging on
	// without releasing lets retained data strangle the device.
	latest := map[int64]byte{}
	buf := make([]byte, blockdev.OPageSize)
aging:
	for round := 0; round < 300 && !d.Retired(); round++ {
		for _, m := range d.Minidisks() {
			for lba := 0; lba < m.LBAs; lba++ {
				v := byte(round + lba)
				if err := d.Write(m.ID, lba, pattern(v)); err != nil {
					break
				}
				latest[packKey(m.ID, lba)] = v
				if len(drains) > 0 {
					break aging
				}
			}
		}
	}
	if len(drains) == 0 {
		t.Skip("no drain within budget")
	}
	if len(decoms) != 0 {
		t.Fatalf("decommission fired before release: %v", decoms)
	}
	md := drains[0]
	// Release any additional disks drained by the same capacity check so
	// the device stays healthy while we inspect the first one.
	for _, extra := range drains[1:] {
		if err := d.Release(extra); err != nil {
			t.Fatal(err)
		}
	}
	decoms = nil

	// Hidden from the live listing.
	for _, m := range d.Minidisks() {
		if m.ID == md {
			t.Fatal("draining disk still listed")
		}
	}
	// Writes rejected; reads serve the retained data.
	if err := d.Write(md, 0, buf); !errors.Is(err, blockdev.ErrNoSuchMinidisk) {
		t.Errorf("write to draining disk: %v", err)
	}
	got := make([]byte, blockdev.OPageSize)
	readable := 0
	for lba := 0; lba < 16; lba++ {
		if err := d.Read(md, lba, got); err != nil {
			t.Fatalf("mid-drain read lba %d: %v", lba, err)
		}
		if v, ok := latest[packKey(md, lba)]; ok {
			if !bytes.Equal(got, pattern(v)) {
				t.Fatalf("mid-drain content wrong at lba %d", lba)
			}
			readable++
		}
	}
	if readable == 0 {
		t.Fatal("nothing verified on the draining disk")
	}

	// Release completes the decommission.
	if err := d.Release(md); err != nil {
		t.Fatal(err)
	}
	if len(decoms) != 1 || decoms[0] != md {
		t.Fatalf("decommissions after release of %d: %v", md, decoms)
	}
	if err := d.Read(md, 0, got); !errors.Is(err, blockdev.ErrNoSuchMinidisk) {
		t.Errorf("read after release: %v", err)
	}
	if err := d.Release(md); err == nil {
		t.Error("double release succeeded")
	}
	if got := d.Counters().Releases; got != uint64(len(drains)) {
		t.Errorf("release counter = %d, want %d (one per drained disk)", got, len(drains))
	}
	checkInvariants(t, d)
}

// TestRetireForceReleasesDrains: a device that dies mid-grace still ends
// with one decommission per minidisk and a single brick event.
func TestRetireForceReleasesDrains(t *testing.T) {
	d, _ := mustDevice(t, graceConfig())
	n0 := len(d.Minidisks())
	counts := map[blockdev.EventKind]int{}
	d.Notify(func(e blockdev.Event) { counts[e.Kind]++ })
	buf := make([]byte, blockdev.OPageSize)
	for round := 0; round < 500 && !d.Retired(); round++ {
		for _, m := range d.Minidisks() {
			for lba := 0; lba < m.LBAs; lba++ {
				if err := d.Write(m.ID, lba, buf); err != nil {
					break
				}
			}
		}
	}
	if !d.Retired() {
		t.Skip("device survived the budget")
	}
	if counts[blockdev.EventDecommission] != n0 {
		t.Errorf("decommissions = %d, want %d (every disk accounted for)",
			counts[blockdev.EventDecommission], n0)
	}
	if counts[blockdev.EventBrick] != 1 {
		t.Errorf("brick events = %d", counts[blockdev.EventBrick])
	}
}

// TestGraceCapacityInvariant: while draining disks retain data, the Eq. 2
// invariant over *live* LBAs must still hold after every sweep.
func TestGraceCapacityInvariant(t *testing.T) {
	d, _ := mustDevice(t, graceConfig())
	buf := make([]byte, blockdev.OPageSize)
	released := 0
	d.Notify(func(e blockdev.Event) {
		// Immediately release drains, as a prompt host would.
		if e.Kind == blockdev.EventDrain {
			released++
		}
	})
	for round := 0; round < 150 && !d.Retired(); round++ {
		for _, m := range d.Minidisks() {
			for lba := 0; lba < m.LBAs; lba++ {
				if err := d.Write(m.ID, lba, buf); err != nil {
					break
				}
			}
		}
		// Release everything that drained this round (outside the event
		// handler, per the no-reentrancy contract).
		for _, m := range d.mdisks {
			if m.state == mdDraining {
				if err := d.Release(m.info.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkInvariants(t, d)
	}
	if released == 0 {
		t.Skip("no drains within budget")
	}
}

func TestHealthReport(t *testing.T) {
	d, _ := mustDevice(t, testConfig())
	h := d.Wear()
	if h.LiveMinidisks != len(d.Minidisks()) {
		t.Errorf("live minidisks = %d", h.LiveMinidisks)
	}
	if h.CapacityFrac != 1 {
		t.Errorf("fresh capacity frac = %v", h.CapacityFrac)
	}
	if h.Retired || h.DeadPages != 0 || h.DrainingMinidisks != 0 {
		t.Errorf("fresh health: %+v", h)
	}
	// After aging, capacity fraction drops and limbo/dead appear.
	aged, _ := mustDevice(t, agingConfig(8, 1))
	buf := make([]byte, blockdev.OPageSize)
	for round := 0; round < 100 && aged.Counters().Decommissions == 0 && !aged.Retired(); round++ {
		for _, m := range aged.Minidisks() {
			for lba := 0; lba < m.LBAs; lba++ {
				if err := aged.Write(m.ID, lba, buf); err != nil {
					break
				}
			}
		}
	}
	ah := aged.Wear()
	if ah.CapacityFrac >= 1 {
		t.Errorf("aged capacity frac = %v, want < 1", ah.CapacityFrac)
	}
	if ah.MeanPEC == 0 || ah.MaxPEC == 0 {
		t.Errorf("aged wear not reported: %+v", ah)
	}
}
