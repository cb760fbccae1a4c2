package blockdev

import (
	"encoding/json"
	"errors"
	"fmt"

	"salamander/internal/store"
)

// DurableDevice is a MemDevice whose minidisk directory and contents live in
// a store.Store, so they survive process death — the persistence layer that
// turns salchaos crash/restart from a simulation into real kill-the-binary
// durability testing. The embedded MemDevice serves reads and holds the
// semantics; the embedded Persister commits every page; DurableDevice itself
// adds only the directory records, each committed before the change it
// records is applied and acknowledged.
//
// Store layout (all under the device's own store root):
//
//	dev/meta       JSON {NextID, Brick}
//	md/<id>        JSON {Info, Draining} per live minidisk
//	pg/<id>/<lba>  one committed oPage (Persister)
type DurableDevice struct {
	*MemDevice
	*Persister
}

type durMeta struct {
	NextID MinidiskID `json:"next_id"`
	Brick  bool       `json:"brick"`
}

type durDiskRec struct {
	Info     MinidiskInfo `json:"info"`
	Draining bool         `json:"draining"`
}

// OpenDurable opens a device over the store, reloading any persisted state.
// A fresh store yields a device with no minidisks; call AddMinidisk to
// provision it. Records that fail to decode are skipped and reported via
// Damaged — recovery degrades to repair, it does not abort.
func OpenDurable(st store.Store) (*DurableDevice, error) {
	mem := &MemDevice{disks: map[MinidiskID]*memDisk{}}
	var damaged []string
	if raw, err := st.Get("dev/meta"); err == nil {
		var m durMeta
		if json.Unmarshal(raw, &m) != nil {
			damaged = append(damaged, "dev/meta")
		} else {
			mem.nextID, mem.brick = m.NextID, m.Brick
		}
	} else if !errors.Is(err, store.ErrNotFound) {
		return nil, fmt.Errorf("blockdev: open durable: %w", err)
	}
	keys, err := st.List("md/")
	if err != nil {
		return nil, fmt.Errorf("blockdev: open durable: %w", err)
	}
	var draining []*memDisk
	for _, k := range keys {
		raw, err := st.Get(k)
		var rec durDiskRec
		if err != nil || json.Unmarshal(raw, &rec) != nil || rec.Info.LBAs <= 0 {
			damaged = append(damaged, k)
			continue
		}
		disk := &memDisk{info: rec.Info, data: map[int][]byte{}}
		mem.disks[rec.Info.ID] = disk
		mem.nextID = max(mem.nextID, rec.Info.ID+1)
		if rec.Draining {
			draining = append(draining, disk)
		}
	}
	// Replay while every disk is still writable, then resume the drains.
	p, err := Persist(mem, st, nil, damaged)
	if err != nil {
		return nil, err
	}
	for _, disk := range draining {
		disk.draining = true
	}
	return &DurableDevice{mem, p}, nil
}

// Both embedded types define Write, Trim and Notify; these pick the
// Persister's, which wraps the device's own.
func (d *DurableDevice) Write(md MinidiskID, lba int, buf []byte) error {
	return d.Persister.Write(md, lba, buf)
}
func (d *DurableDevice) Trim(md MinidiskID, lba int) error { return d.Persister.Trim(md, lba) }
func (d *DurableDevice) Notify(fn func(Event))             { d.Persister.Notify(fn) }

func mdKey(id MinidiskID) string { return fmt.Sprintf("md/%d", id) }

func (d *DurableDevice) putMeta(next MinidiskID, brick bool) error {
	raw, _ := json.Marshal(durMeta{NextID: next, Brick: brick})
	return d.st.Put("dev/meta", raw)
}

func (d *DurableDevice) putDisk(info MinidiskInfo, draining bool) error {
	raw, _ := json.Marshal(durDiskRec{Info: info, Draining: draining})
	return d.st.Put(mdKey(info.ID), raw)
}

// dir reads the MemDevice's directory: id's disk (nil if absent), the next
// ID and the brick flag. Callers hold the Persister's lock, which orders
// every directory change.
func (d *DurableDevice) dir(id MinidiskID) (*memDisk, MinidiskID, bool) {
	m := d.MemDevice
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.disks[id], m.nextID, m.brick
}

// AddMinidisk provisions a new minidisk (tiredness > 0 models a RegenS
// disk) and emits EventRegenerate once its record is committed.
func (d *DurableDevice) AddMinidisk(lbas, tiredness int) (MinidiskID, error) {
	d.Persister.mu.Lock()
	defer d.Persister.mu.Unlock()
	_, id, brick := d.dir(-1)
	if brick {
		return 0, ErrBricked
	}
	if err := d.putDisk(MinidiskInfo{ID: id, LBAs: lbas, Tiredness: tiredness}, false); err != nil {
		return 0, err
	}
	if err := d.putMeta(id+1, false); err != nil {
		return 0, err
	}
	return d.MemDevice.AddMinidisk(lbas, tiredness), nil
}

// FailMinidisk decommissions a minidisk durably.
func (d *DurableDevice) FailMinidisk(id MinidiskID) error {
	return d.retire(id, false, d.MemDevice.FailMinidisk)
}

// Release implements Drainer: completes a drain by dropping the minidisk.
func (d *DurableDevice) Release(id MinidiskID) error {
	return d.retire(id, true, d.MemDevice.Release)
}

// retire deletes the minidisk record before drop decommissions the disk,
// whose event prunes its pages, so a crash mid-sweep leaves only orphan
// pages that the next open reclaims. A call drop refuses changes no record.
func (d *DurableDevice) retire(id MinidiskID, mustDrain bool, drop func(MinidiskID) error) error {
	d.Persister.mu.Lock()
	defer d.Persister.mu.Unlock()
	if disk, _, _ := d.dir(id); disk != nil && (disk.draining || !mustDrain) {
		if err := d.st.Delete(mdKey(id)); err != nil {
			return err
		}
	}
	return drop(id)
}

// DrainMinidisk starts a grace-period decommission (readable, not
// writable), persisting the draining flag so a restart resumes the drain.
func (d *DurableDevice) DrainMinidisk(id MinidiskID) error {
	d.Persister.mu.Lock()
	defer d.Persister.mu.Unlock()
	if disk, _, _ := d.dir(id); disk != nil && !disk.draining {
		if err := d.putDisk(disk.info, true); err != nil {
			return err
		}
	}
	return d.MemDevice.DrainMinidisk(id)
}

// Brick fails the whole device, durably: a reopened store comes back
// bricked too.
func (d *DurableDevice) Brick() error {
	d.Persister.mu.Lock()
	defer d.Persister.mu.Unlock()
	_, next, brick := d.dir(-1)
	if brick {
		return nil
	}
	if err := d.putMeta(next, true); err != nil {
		return err
	}
	// Best effort: with the brick committed, a record the sweep misses
	// names a disk that serves nothing.
	keys, _ := d.st.List("md/")
	for _, k := range keys {
		_ = d.st.Delete(k)
	}
	d.MemDevice.Brick()
	return nil
}

var (
	_ Device       = (*DurableDevice)(nil)
	_ Drainer      = (*DurableDevice)(nil)
	_ WearReporter = (*DurableDevice)(nil)
)
