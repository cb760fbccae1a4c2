package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"salamander/internal/blockdev"
	"salamander/internal/sim"
	"salamander/internal/store"
)

// Durable wraps a Salamander Device with a store.Store so that the two
// things a real restart must not lose survive process death: the host's
// acked oPages and the flash array's accumulated wear. The simulated device
// itself is rebuilt from its Config on every open (the simulation is
// deterministic), then aged back to its checkpointed wear and re-fed its
// persisted contents. The embedded blockdev.Persister owns the pages;
// Durable adds only the wear snapshot.
//
// Store layout:
//
//	wear           JSON per-block {PEC, Dead} snapshot
//	pg/<md>/<lba>  one committed host oPage (blockdev.Persister)
//
// The wear snapshot is checkpointed every 64 host writes and on Flush and
// Close, so a kill -9 forfeits at most that window of aging — wear only
// ever under-counts, it never runs backwards.
//
// Honest limitations, by design: minidisk lifecycle (decommissions,
// drains) is not replayed — a reopened device starts from its config's
// disk set, and pages persisted for minidisks the fresh device does not
// expose are reclaimed. The distributed layer's recovery quarantines and
// repairs the affected chunks; pretending the pages were still addressable
// is how recovery serves wrong bytes.
type Durable struct {
	*Device
	*blockdev.Persister
	st store.Store
}

type wearSnap struct {
	PEC  []uint32 `json:"pec"`
	Dead []int    `json:"dead,omitempty"`
}

// OpenDurable builds a fresh Device from cfg and recovers it from the
// store: wear first (so replayed programs age already-worn flash), then
// contents. A fresh store yields a pristine device. An undecodable wear
// snapshot is reported by Damaged and the device starts from pristine wear.
func OpenDurable(cfg Config, eng *sim.Engine, st store.Store) (*Durable, error) {
	inner, err := New(cfg, eng)
	if err != nil {
		return nil, err
	}
	d := &Durable{Device: inner, st: st}
	damaged, err := d.restoreWear()
	if err != nil {
		return nil, err
	}
	if d.Persister, err = blockdev.Persist(inner, st, d.checkpointWear, damaged); err != nil {
		return nil, err
	}
	if err := d.Flush(); err != nil {
		return nil, err
	}
	return d, nil
}

// Both embedded types define Write, Trim and Notify; these pick the
// Persister's, which wraps the device's own.
func (d *Durable) Write(md blockdev.MinidiskID, lba int, buf []byte) error {
	return d.Persister.Write(md, lba, buf)
}
func (d *Durable) Trim(md blockdev.MinidiskID, lba int) error { return d.Persister.Trim(md, lba) }
func (d *Durable) Notify(fn func(blockdev.Event))             { d.Persister.Notify(fn) }

// restoreWear ages the fresh array to the checkpointed wear. It returns
// the snapshot's key as damaged if it does not decode.
func (d *Durable) restoreWear() ([]string, error) {
	raw, err := d.st.Get("wear")
	if errors.Is(err, store.ErrNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: restore wear: %w", err)
	}
	var snap wearSnap
	if json.Unmarshal(raw, &snap) != nil {
		// Puts are atomic, so this is foreign data. Pristine wear is the
		// safe degradation: lifespan is under-counted, never corrupted.
		return []string{"wear"}, nil
	}
	arr := d.Array()
	total := arr.Geometry().TotalBlocks()
	for b, pec := range snap.PEC[:min(len(snap.PEC), total)] {
		if err := arr.RestoreWear(b, pec, false); err != nil {
			return nil, err
		}
	}
	for _, b := range snap.Dead {
		if b >= 0 && b < total {
			if err := arr.RestoreWear(b, arr.BlockPEC(b), true); err != nil {
				return nil, err
			}
		}
	}
	return nil, nil
}

// checkpointWear snapshots per-block wear into the store.
func (d *Durable) checkpointWear() error {
	arr := d.Array()
	total := arr.Geometry().TotalBlocks()
	snap := wearSnap{PEC: make([]uint32, total)}
	for b := 0; b < total; b++ {
		snap.PEC[b] = arr.BlockPEC(b)
		if arr.BlockDead(b) {
			snap.Dead = append(snap.Dead, b)
		}
	}
	raw, _ := json.Marshal(snap)
	if err := d.st.Put("wear", raw); err != nil {
		return fmt.Errorf("core: checkpoint wear: %w", err)
	}
	return nil
}

// Flush drains the device write buffer and checkpoints wear.
func (d *Durable) Flush() error {
	if err := d.Device.Flush(); err != nil {
		return err
	}
	return d.checkpointWear()
}

// Close drains the device write buffer, then checkpoints and syncs through
// the Persister.
func (d *Durable) Close() error {
	if err := d.Device.Flush(); err != nil {
		return err
	}
	return d.Persister.Close()
}

var _ blockdev.Device = (*Durable)(nil)
