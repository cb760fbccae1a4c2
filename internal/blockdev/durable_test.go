package blockdev_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"salamander/internal/blockdev"
	"salamander/internal/core"
	"salamander/internal/flash"
	"salamander/internal/rber"
	"salamander/internal/sim"
	"salamander/internal/store"
)

// The durable suite: what both durable device kinds promise because they
// share one blockdev.Persister, asserted once over a table of kinds. What
// only the mem kind persists (its minidisk directory) is tested after the
// table.

type durableDev interface {
	blockdev.Device
	Damaged() []string
	Close() error
}

type durableKind struct {
	name string
	// state is the key of the kind's own state record beside the pages.
	state string
	// open opens the kind over st, provisioning minidisks on a fresh mem
	// store.
	open func(t *testing.T, st store.Store) durableDev
	// meanPEC reports flash wear (nil: the kind has none).
	meanPEC func(durableDev) float64
	// wearOut drives a device over st, with check as its event handler,
	// through at least one decommission and then a brick.
	wearOut func(t *testing.T, st store.Store, check func(blockdev.Event))
}

var durableKinds = []durableKind{
	{name: "mem", state: "dev/meta", open: openMem, wearOut: wearOutMem},
	{
		name: "core", state: "wear", open: openCore, wearOut: wearOutCore,
		meanPEC: func(d durableDev) float64 { return d.(*core.Durable).Array().Stats().MeanPEC },
	},
}

func openMem(t *testing.T, st store.Store) durableDev {
	t.Helper()
	d, err := blockdev.OpenDurable(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Minidisks()) > 0 {
		return d
	}
	for i := 0; i < 3; i++ {
		if _, err := d.AddMinidisk(16, 0); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// coreConfig: 2x8 blocks x 8 pages of flash in 64 KiB minidisks, analytic
// ECC over stored bytes.
func coreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Flash.Geometry = flash.Geometry{
		Channels:      2,
		BlocksPerChan: 8,
		PagesPerBlock: 8,
		PageSize:      rber.FPageSize,
		SpareSize:     rber.SpareSize,
	}
	cfg.MSizeOPages = 16
	cfg.RealECC = false
	cfg.Flash.StoreData = true
	return cfg
}

func openCore(t *testing.T, st store.Store) durableDev {
	t.Helper()
	d, err := core.OpenDurable(coreConfig(), sim.NewEngine(), st)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func wearOutMem(t *testing.T, st store.Store, check func(blockdev.Event)) {
	d := openMem(t, st).(*blockdev.DurableDevice)
	d.Notify(check)
	mds := d.Minidisks()
	for _, m := range mds {
		if err := d.Write(m.ID, 1, page(byte(m.ID))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.FailMinidisk(mds[0].ID); err != nil {
		t.Fatal(err)
	}
	if keys, _ := st.List(fmt.Sprintf("pg/%d/", mds[1].ID)); len(keys) != 1 {
		t.Fatalf("decommission pruned an unrelated disk's page: %v", keys)
	}
	if err := d.Brick(); err != nil {
		t.Fatal(err)
	}
}

// wearOutCore overwrites a metadata-only device with tiny endurance until
// it retires.
func wearOutCore(t *testing.T, st store.Store, check func(blockdev.Event)) {
	cfg := coreConfig()
	cfg.Flash.StoreData = false
	cfg.Flash.Reliability.NominalPEC = 10
	cfg.Flash.EnduranceCV = 0.1
	cfg.Flash.PageCV = 0.05
	cfg.MaxLevel = 0
	d, err := core.OpenDurable(cfg, sim.NewEngine(), st)
	if err != nil {
		t.Fatal(err)
	}
	d.Notify(check)
	buf := make([]byte, blockdev.OPageSize)
	for round := 0; round < 400 && !d.Retired(); round++ {
		for _, m := range d.Minidisks() {
			for lba := 0; lba < m.LBAs; lba++ {
				err := d.Write(m.ID, lba, buf)
				if errors.Is(err, blockdev.ErrNoSuchMinidisk) || errors.Is(err, blockdev.ErrBricked) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func page(seed byte) []byte {
	p := make([]byte, blockdev.OPageSize)
	for i := range p {
		p[i] = seed ^ byte(i*131)
	}
	return p
}

func isZero(buf []byte) bool { return !slices.ContainsFunc(buf, func(b byte) bool { return b != 0 }) }

func TestDurableConformance(t *testing.T) {
	for _, k := range durableKinds {
		t.Run(k.name, func(t *testing.T) {
			if err := blockdev.CheckConformance(k.open(t, store.NewMem())); err != nil {
				t.Fatal(err)
			}
			if err := blockdev.CheckConcurrency(k.open(t, store.NewMem()), 4, 200, 7); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDurableConformanceOnFileStore(t *testing.T) {
	for _, k := range durableKinds {
		t.Run(k.name, func(t *testing.T) {
			st, err := store.OpenFile(t.TempDir(), store.FileOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if err := blockdev.CheckConformance(k.open(t, st)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurableSurvivesReopen is the core durability property: everything an
// acked write or trim established is visible through a fresh device over
// the same store, and flash wear never runs backwards.
func TestDurableSurvivesReopen(t *testing.T) {
	for _, k := range durableKinds {
		t.Run(k.name, func(t *testing.T) {
			st := store.NewMem()
			d := k.open(t, st)
			mds := d.Minidisks()
			// Churn the whole logical space several times over so flash GC
			// must erase: there has to be real wear to persist.
			for round := 0; round < 4; round++ {
				for _, m := range mds {
					for lba := 0; lba < m.LBAs; lba++ {
						if err := d.Write(m.ID, lba, page(byte(round)^byte(lba))); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if err := d.Trim(mds[1].ID, 0); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			var wearBefore float64
			if k.meanPEC != nil {
				if wearBefore = k.meanPEC(d); wearBefore == 0 {
					t.Fatal("churn produced no wear; the test is vacuous")
				}
			}

			d2 := k.open(t, st.Reopen())
			if dmg := d2.Damaged(); len(dmg) != 0 {
				t.Fatalf("clean reopen reported damage: %v", dmg)
			}
			if k.meanPEC != nil && k.meanPEC(d2) < wearBefore {
				t.Fatalf("wear ran backwards across reopen: %.2f < %.2f", k.meanPEC(d2), wearBefore)
			}
			buf := make([]byte, blockdev.OPageSize)
			for _, m := range mds {
				for lba := 0; lba < m.LBAs; lba++ {
					if err := d2.Read(m.ID, lba, buf); err != nil {
						t.Fatalf("md %d lba %d: %v", m.ID, lba, err)
					}
					trimmed := m.ID == mds[1].ID && lba == 0
					if trimmed && !isZero(buf) {
						t.Fatal("trim did not survive reopen")
					}
					if !trimmed && !bytes.Equal(buf, page(3^byte(lba))) {
						t.Fatalf("md %d lba %d content changed across reopen", m.ID, lba)
					}
				}
			}
		})
	}
}

// TestDurableToleratesCorruptRecords: a torn page is reclaimed and listed by
// Damaged, as is an undecodable state record; pages of a minidisk or LBA
// the device does not expose are reclaimed without being listed. Never a
// panic, never wrong bytes.
func TestDurableToleratesCorruptRecords(t *testing.T) {
	for _, k := range durableKinds {
		t.Run(k.name, func(t *testing.T) {
			st := store.NewMem()
			d := k.open(t, st)
			m := d.Minidisks()[0]
			if err := d.Write(m.ID, 1, page(0x42)); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			raw := st.Reopen()
			torn := fmt.Sprintf("pg/%d/2", m.ID)
			planted := map[string][]byte{
				k.state:                          []byte(`{"trunc`),
				torn:                             []byte("short"),
				"pg/99999/0":                     page(1),
				fmt.Sprintf("pg/%d/99999", m.ID): page(2),
			}
			for key, v := range planted {
				if err := raw.Put(key, v); err != nil {
					t.Fatal(err)
				}
			}
			d2 := k.open(t, raw)
			if dmg := d2.Damaged(); !slices.Equal(dmg, []string{k.state, torn}) {
				t.Fatalf("Damaged = %v, want [%s %s]", dmg, k.state, torn)
			}
			for key := range planted {
				if key == k.state {
					continue // rewritten by the next state change, not reclaimed
				}
				if _, err := raw.Get(key); !errors.Is(err, store.ErrNotFound) {
					t.Fatalf("%s not reclaimed: %v", key, err)
				}
			}
			buf := make([]byte, blockdev.OPageSize)
			if err := d2.Read(m.ID, 1, buf); err != nil || !bytes.Equal(buf, page(0x42)) {
				t.Fatalf("good page lost: %v", err)
			}
			if err := d2.Read(m.ID, 2, buf); err != nil || !isZero(buf) {
				t.Fatalf("torn page served non-zero bytes (err %v)", err)
			}
		})
	}
}

// TestDurableEventPruning: when the device withdraws capacity its persisted
// pages go before the host hears of it, so a reopen does not resurrect
// data the distributed layer was told to re-replicate.
func TestDurableEventPruning(t *testing.T) {
	for _, k := range durableKinds {
		t.Run(k.name, func(t *testing.T) {
			st := store.NewMem()
			seen := map[blockdev.EventKind]int{}
			k.wearOut(t, st, func(e blockdev.Event) {
				prefix := "pg/"
				switch e.Kind {
				case blockdev.EventDecommission:
					prefix = fmt.Sprintf("pg/%d/", e.Minidisk)
				case blockdev.EventBrick:
				default:
					return
				}
				seen[e.Kind]++
				if keys, _ := st.List(prefix); len(keys) != 0 {
					t.Errorf("%v left pages behind: %v", e, keys)
				}
			})
			if seen[blockdev.EventDecommission] == 0 || seen[blockdev.EventBrick] != 1 {
				t.Fatalf("events seen = %v, want decommissions and one brick", seen)
			}
		})
	}
}

// TestDurableDrainAndIDsSurviveReopen: a draining minidisk stays draining
// across a reopen — hidden from Minidisks, writes rejected, reads still
// served — and new minidisk IDs never collide with pre-restart ones.
func TestDurableDrainAndIDsSurviveReopen(t *testing.T) {
	st := store.NewMem()
	d := openMem(t, st).(*blockdev.DurableDevice)
	mds := d.Minidisks()
	if err := d.Write(mds[0].ID, 3, page(0xAA)); err != nil {
		t.Fatal(err)
	}
	if err := d.DrainMinidisk(mds[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := d.FailMinidisk(mds[2].ID); err != nil {
		t.Fatal(err)
	}

	d2 := openMem(t, st.Reopen()).(*blockdev.DurableDevice)
	if live := d2.Minidisks(); len(live) != 1 || live[0].ID != mds[1].ID {
		t.Fatalf("Minidisks after reopen = %v, want only %d", live, mds[1].ID)
	}
	buf := make([]byte, blockdev.OPageSize)
	if err := d2.Read(mds[0].ID, 3, buf); err != nil || !bytes.Equal(buf, page(0xAA)) {
		t.Fatalf("draining disk lost its contents across reopen (err %v)", err)
	}
	if err := d2.Write(mds[0].ID, 3, page(0x11)); !errors.Is(err, blockdev.ErrNoSuchMinidisk) {
		t.Fatalf("write to draining disk after reopen = %v, want ErrNoSuchMinidisk", err)
	}
	id, err := d2.AddMinidisk(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if id <= mds[2].ID {
		t.Fatalf("new ID %d collides with pre-restart IDs", id)
	}
}

func TestDurableFailAndBrickPersist(t *testing.T) {
	st := store.NewMem()
	d := openMem(t, st).(*blockdev.DurableDevice)
	mds := d.Minidisks()
	if err := d.FailMinidisk(mds[0].ID); err != nil {
		t.Fatal(err)
	}
	d2, err := blockdev.OpenDurable(st.Reopen())
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Minidisks(); len(got) != 2 || got[0].ID != mds[1].ID {
		t.Fatalf("Minidisks after fail+reopen = %v", got)
	}
	if err := d2.Brick(); err != nil {
		t.Fatal(err)
	}
	d3, err := blockdev.OpenDurable(st.Reopen())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockdev.OPageSize)
	if err := d3.Read(mds[1].ID, 0, buf); !errors.Is(err, blockdev.ErrBricked) {
		t.Fatalf("brick did not survive reopen: read = %v, want ErrBricked", err)
	}
}

// TestDurableDropsCorruptDiskRecord: an undecodable minidisk record is
// listed by Damaged and its disk is simply absent (difs repair handles the
// fallout) rather than half-loaded.
func TestDurableDropsCorruptDiskRecord(t *testing.T) {
	st := store.NewMem()
	mds := openMem(t, st).Minidisks()
	raw := st.Reopen()
	if err := raw.Put("md/0", []byte(`{"info":{"id":0,`)); err != nil {
		t.Fatal(err)
	}
	d, err := blockdev.OpenDurable(raw)
	if err != nil {
		t.Fatal(err)
	}
	if dmg := d.Damaged(); !slices.Equal(dmg, []string{"md/0"}) {
		t.Fatalf("Damaged = %v, want [md/0]", dmg)
	}
	if got := d.Minidisks(); len(got) != 2 || got[0].ID != mds[1].ID {
		t.Fatalf("Minidisks = %v, want %d and %d", got, mds[1].ID, mds[2].ID)
	}
}
