package core

import (
	"bytes"
	"errors"
	"testing"

	"salamander/internal/blockdev"
	"salamander/internal/flash"
	"salamander/internal/ftl"
	"salamander/internal/rber"
	"salamander/internal/sim"
	"salamander/internal/ssd"
)

// ageDevice overwrites every live minidisk repeatedly until the device
// retires or maxRounds elapse. Returns total host oPages written and the
// recorded events.
func ageDevice(t *testing.T, d *Device, maxRounds int) (written int64, events []blockdev.Event) {
	t.Helper()
	d.Notify(func(e blockdev.Event) { events = append(events, e) })
	buf := make([]byte, blockdev.OPageSize)
	for round := 0; round < maxRounds && !d.Retired(); round++ {
		for _, m := range d.Minidisks() {
			for lba := 0; lba < m.LBAs; lba++ {
				err := d.Write(m.ID, lba, buf)
				switch {
				case err == nil:
					written++
				case errors.Is(err, blockdev.ErrNoSuchMinidisk):
					// This minidisk was decommissioned mid-sweep; move on.
					lba = m.LBAs
				case errors.Is(err, blockdev.ErrBricked):
					return written, events
				default:
					t.Fatalf("aging write failed: %v", err)
				}
			}
			if d.Retired() {
				break
			}
		}
	}
	return written, events
}

func countEvents(events []blockdev.Event, kind blockdev.EventKind) int {
	n := 0
	for _, e := range events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// TestShrinkSGradualDecommission: under sustained wear a ShrinkS device
// sheds minidisks one at a time instead of dying wholesale (Fig. 1 b2).
func TestShrinkSGradualDecommission(t *testing.T) {
	d, _ := mustDevice(t, agingConfig(10, 0))
	n0 := len(d.Minidisks())
	written, events := ageDevice(t, d, 400)
	if written == 0 {
		t.Fatal("no writes accepted")
	}
	dec := countEvents(events, blockdev.EventDecommission)
	if dec == 0 {
		t.Fatal("no decommission events under sustained wear")
	}
	if !d.Retired() {
		// Device survived the budget: it must have shrunk, at least.
		if len(d.Minidisks()) >= n0 {
			t.Fatal("device neither shrank nor retired")
		}
		return
	}
	// Retired: every original minidisk was individually decommissioned and
	// a final brick event closed the device.
	if dec < n0 {
		t.Errorf("only %d decommissions for %d minidisks", dec, n0)
	}
	if countEvents(events, blockdev.EventBrick) != 1 {
		t.Errorf("want exactly one brick event, got %d", countEvents(events, blockdev.EventBrick))
	}
	checkInvariants(t, d)
}

// TestShrinkSCapacityMonotone: live capacity never increases in ShrinkS and
// shrinks in mSize quanta.
func TestShrinkSCapacityMonotone(t *testing.T) {
	d, _ := mustDevice(t, agingConfig(10, 0))
	var caps []int
	// The handler runs with the device lock held (handlers must not call
	// back into the device), so it reads the field directly.
	d.Notify(func(e blockdev.Event) { caps = append(caps, d.liveLBAs) })
	prev := d.LiveLBAs()
	buf := make([]byte, blockdev.OPageSize)
	for round := 0; round < 200 && !d.Retired(); round++ {
		for _, m := range d.Minidisks() {
			for lba := 0; lba < m.LBAs; lba++ {
				if err := d.Write(m.ID, lba, buf); err != nil {
					break
				}
			}
		}
		cur := d.LiveLBAs()
		if cur > prev {
			t.Fatalf("ShrinkS capacity grew: %d -> %d", prev, cur)
		}
		if (prev-cur)%d.cfg.MSizeOPages != 0 {
			t.Fatalf("capacity shrank by %d, not a multiple of mSize", prev-cur)
		}
		prev = cur
	}
}

// TestRegenSRegenerates: with MaxLevel=1 the device mints new minidisks at
// tiredness 1 from retired pages (Fig. 1 b3-b4).
func TestRegenSRegenerates(t *testing.T) {
	d, _ := mustDevice(t, agingConfig(8, 1))
	_, events := ageDevice(t, d, 400)
	regen := countEvents(events, blockdev.EventRegenerate)
	if regen == 0 {
		t.Fatal("RegenS never regenerated a minidisk")
	}
	for _, e := range events {
		if e.Kind == blockdev.EventRegenerate && e.Info.Tiredness != 1 {
			t.Errorf("regenerated minidisk at tiredness %d, want 1", e.Info.Tiredness)
		}
	}
	if d.Counters().Regenerations != uint64(regen) {
		t.Errorf("counter mismatch: %d vs %d events", d.Counters().Regenerations, regen)
	}
}

// TestRegenSOutlivesShrinkSOutlivesBaseline is the paper's headline claim at
// device granularity: total bytes absorbed before death orders as
// baseline < ShrinkS < RegenS.
func TestRegenSOutlivesShrinkSOutlivesBaseline(t *testing.T) {
	const pec = 8
	// Baseline device with the same flash parameters.
	bCfg := ssd.DefaultConfig()
	bCfg.Flash = agingConfig(pec, 0).Flash
	bCfg.RealECC = false
	eng := sim.NewEngine()
	base, err := ssd.New(bCfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	var baseWritten int64
	buf := make([]byte, blockdev.OPageSize)
	lbas := base.Minidisks()[0].LBAs
	for round := 0; round < 600 && !base.Wear().Retired; round++ {
		for lba := 0; lba < lbas && !base.Wear().Retired; lba++ {
			if base.Write(0, lba, buf) == nil {
				baseWritten++
			}
		}
	}
	if !base.Wear().Retired {
		t.Fatal("baseline never bricked; raise the aging budget")
	}

	shrink, _ := mustDevice(t, agingConfig(pec, 0))
	shrinkWritten, _ := ageDevice(t, shrink, 600)

	regen, _ := mustDevice(t, agingConfig(pec, 1))
	regenWritten, _ := ageDevice(t, regen, 600)

	t.Logf("written until death: baseline=%d shrinkS=%d regenS=%d (ratios %.2f / %.2f)",
		baseWritten, shrinkWritten, regenWritten,
		float64(shrinkWritten)/float64(baseWritten),
		float64(regenWritten)/float64(baseWritten))
	if shrinkWritten <= baseWritten {
		t.Errorf("ShrinkS (%d) did not outlive baseline (%d)", shrinkWritten, baseWritten)
	}
	if regenWritten <= shrinkWritten {
		t.Errorf("RegenS (%d) did not outlive ShrinkS (%d)", regenWritten, shrinkWritten)
	}
}

// TestRegeneratedMinidiskStoresDataWithRealECC drives a real-ECC device to
// regeneration and then round-trips data through a tiredness-1 minidisk,
// exercising the L1 BCH code end to end on worn pages.
func TestRegeneratedMinidiskStoresDataWithRealECC(t *testing.T) {
	cfg := agingConfig(6, 1)
	cfg.RealECC = true
	cfg.Flash.StoreData = true
	d, _ := mustDevice(t, cfg)
	var regenerated []blockdev.MinidiskInfo
	d.Notify(func(e blockdev.Event) {
		if e.Kind == blockdev.EventRegenerate {
			regenerated = append(regenerated, e.Info)
		}
	})
	// Regenerated disks sit on the weakest pages and are the preferred
	// decommission victims, so age until one is created AND still live.
	liveTired := func() (blockdev.MinidiskInfo, bool) {
		for _, m := range d.Minidisks() {
			if m.Tiredness >= 1 {
				return m, true
			}
		}
		return blockdev.MinidiskInfo{}, false
	}
	buf := make([]byte, blockdev.OPageSize)
	md, ok := liveTired()
	for round := 0; round < 200 && !ok && !d.Retired(); round++ {
		for _, m := range d.Minidisks() {
			for lba := 0; lba < m.LBAs; lba++ {
				if err := d.Write(m.ID, lba, buf); err != nil {
					break
				}
			}
		}
		md, ok = liveTired()
	}
	if !ok {
		t.Skip("no live regenerated minidisk within budget")
	}
	_ = regenerated
	for lba := 0; lba < md.LBAs; lba++ {
		if err := d.Write(md.ID, lba, pattern(byte(lba*7))); err != nil {
			t.Fatalf("write to regenerated disk: %v", err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockdev.OPageSize)
	verified := 0
	for lba := 0; lba < md.LBAs; lba++ {
		err := d.Read(md.ID, lba, got)
		if errors.Is(err, blockdev.ErrNoSuchMinidisk) {
			t.Skip("regenerated disk was decommissioned before verification")
		}
		if err != nil {
			t.Fatalf("read regenerated lba %d: %v", lba, err)
		}
		if !bytes.Equal(got, pattern(byte(lba*7))) {
			t.Fatalf("regenerated lba %d corrupted", lba)
		}
		verified++
	}
	if verified == 0 {
		t.Fatal("nothing verified")
	}
}

// TestInvariantsThroughoutAging re-checks the global invariants at every
// device event during an aging run.
func TestInvariantsThroughoutAging(t *testing.T) {
	d, _ := mustDevice(t, agingConfig(10, 1))
	buf := make([]byte, blockdev.OPageSize)
	checks := 0
	for round := 0; round < 120 && !d.Retired(); round++ {
		for _, m := range d.Minidisks() {
			for lba := 0; lba < m.LBAs; lba++ {
				if err := d.Write(m.ID, lba, buf); err != nil {
					break
				}
			}
		}
		checkInvariants(t, d)
		checks++
	}
	if checks == 0 {
		t.Fatal("no invariant checks ran")
	}
}

// TestTirednessMonotone: no page's tiredness ever decreases.
func TestTirednessMonotone(t *testing.T) {
	d, _ := mustDevice(t, agingConfig(8, 1))
	g := d.Array().Geometry()
	prev := make([]uint8, g.TotalPages())
	statusRank := func(p ftl.PageInfo) uint8 {
		if p.Status == ftl.PageDead {
			return rber.DeadLevel
		}
		return p.Level
	}
	buf := make([]byte, blockdev.OPageSize)
	for round := 0; round < 100 && !d.Retired(); round++ {
		for _, m := range d.Minidisks() {
			for lba := 0; lba < m.LBAs; lba++ {
				if err := d.Write(m.ID, lba, buf); err != nil {
					break
				}
			}
		}
		for i := range prev {
			r := statusRank(d.e.Page(flash.PPA{Block: i / g.PagesPerBlock, Page: i % g.PagesPerBlock}))
			if r < prev[i] {
				t.Fatalf("page %d level went backwards: %d -> %d", i, prev[i], r)
			}
			prev[i] = r
		}
	}
}

// TestEventsNeverReuseMinidiskIDs: regenerated disks get fresh IDs.
func TestEventsNeverReuseMinidiskIDs(t *testing.T) {
	d, _ := mustDevice(t, agingConfig(8, 1))
	seen := map[blockdev.MinidiskID]bool{}
	for _, m := range d.Minidisks() {
		seen[m.ID] = true
	}
	var reused []blockdev.MinidiskID
	d.Notify(func(e blockdev.Event) {
		if e.Kind == blockdev.EventRegenerate {
			if seen[e.Minidisk] {
				reused = append(reused, e.Minidisk)
			}
			seen[e.Minidisk] = true
		}
	})
	buf := make([]byte, blockdev.OPageSize)
	for round := 0; round < 200 && !d.Retired(); round++ {
		for _, m := range d.Minidisks() {
			for lba := 0; lba < m.LBAs; lba++ {
				if err := d.Write(m.ID, lba, buf); err != nil {
					break
				}
			}
		}
	}
	if len(reused) > 0 {
		t.Fatalf("minidisk IDs reused: %v", reused)
	}
}

// TestDecommissionedDiskRejectsIO: I/O to a decommissioned minidisk fails
// with ErrNoSuchMinidisk while surviving disks keep working.
func TestDecommissionedDiskRejectsIO(t *testing.T) {
	d, _ := mustDevice(t, agingConfig(10, 0))
	var dead []blockdev.MinidiskID
	d.Notify(func(e blockdev.Event) {
		if e.Kind == blockdev.EventDecommission {
			dead = append(dead, e.Minidisk)
		}
	})
	buf := make([]byte, blockdev.OPageSize)
	for round := 0; round < 300 && len(dead) == 0 && !d.Retired(); round++ {
		for _, m := range d.Minidisks() {
			for lba := 0; lba < m.LBAs; lba++ {
				if err := d.Write(m.ID, lba, buf); err != nil {
					break
				}
			}
		}
	}
	if len(dead) == 0 {
		t.Skip("no decommission within budget")
	}
	if d.Retired() {
		t.Skip("device fully retired; nothing to contrast")
	}
	if err := d.Read(dead[0], 0, buf); !errors.Is(err, blockdev.ErrNoSuchMinidisk) {
		t.Errorf("read of decommissioned disk: %v", err)
	}
	if err := d.Write(dead[0], 0, buf); !errors.Is(err, blockdev.ErrNoSuchMinidisk) {
		t.Errorf("write to decommissioned disk: %v", err)
	}
	live := d.Minidisks()
	if len(live) == 0 {
		t.Fatal("no live disks despite not retired")
	}
	if err := d.Write(live[0].ID, 0, buf); err != nil {
		t.Errorf("write to live disk after decommission: %v", err)
	}
}
