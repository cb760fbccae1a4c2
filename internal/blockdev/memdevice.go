package blockdev

import (
	"fmt"
	"sort"
	"sync"
)

// MemDevice is a RAM-backed Device with manually triggered failures. It
// exists so the distributed layer can be tested in isolation from the flash
// and FTL machinery, and so failure sequences can be scripted exactly.
//
// All methods serialize on one mutex, so a MemDevice may be shared between
// goroutines. As with every Device, the Notify handler runs with that lock
// held and must not call back into the device.
type MemDevice struct {
	mu     sync.Mutex
	disks  map[MinidiskID]*memDisk
	nextID MinidiskID
	notify func(Event)
	brick  bool
}

type memDisk struct {
	info     MinidiskInfo
	data     map[int][]byte
	draining bool
}

// NewMemDevice creates a device with n minidisks of lbas oPages each.
func NewMemDevice(n, lbas int) *MemDevice {
	d := &MemDevice{disks: map[MinidiskID]*memDisk{}}
	for i := 0; i < n; i++ {
		d.AddMinidisk(lbas, 0)
	}
	return d
}

// Wear implements WearReporter. RAM has no media wear, so everything but the
// minidisk lifecycle counts reports zero — which keeps a mem-backed fleet's
// /wear report structurally identical to a flash-backed one.
func (d *MemDevice) Wear() WearInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := WearInfo{Kind: "mem", Retired: d.brick}
	for _, disk := range d.disks {
		if disk.draining {
			w.DrainingMinidisks++
		} else {
			w.LiveMinidisks++
		}
	}
	if !d.brick {
		w.CapacityFrac = 1
	}
	return w
}

// AddMinidisk creates a new minidisk (simulating RegenS regeneration when
// tiredness > 0) and emits EventRegenerate. It returns the new ID.
func (d *MemDevice) AddMinidisk(lbas, tiredness int) MinidiskID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.nextID
	d.nextID++
	info := MinidiskInfo{ID: id, LBAs: lbas, Tiredness: tiredness}
	d.disks[id] = &memDisk{info: info, data: map[int][]byte{}}
	if d.notify != nil {
		d.notify(Event{Kind: EventRegenerate, Minidisk: id, Info: info})
	}
	return id
}

// FailMinidisk decommissions a minidisk, dropping its data, and emits
// EventDecommission.
func (d *MemDevice) FailMinidisk(id MinidiskID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	disk, ok := d.disks[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchMinidisk, id)
	}
	delete(d.disks, id)
	if d.notify != nil {
		d.notify(Event{Kind: EventDecommission, Minidisk: id, Info: disk.info})
	}
	return nil
}

// DrainMinidisk starts a grace-period decommission: the minidisk stays
// readable but rejects writes, and emits EventDrain. Complete it with
// Release.
func (d *MemDevice) DrainMinidisk(id MinidiskID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	disk, ok := d.disks[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchMinidisk, id)
	}
	if disk.draining {
		return nil
	}
	disk.draining = true
	if d.notify != nil {
		d.notify(Event{Kind: EventDrain, Minidisk: id, Info: disk.info})
	}
	return nil
}

// Release implements Drainer: the draining minidisk's data is dropped and
// the decommission completed with EventDecommission.
func (d *MemDevice) Release(id MinidiskID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	disk, ok := d.disks[id]
	if !ok || !disk.draining {
		return fmt.Errorf("%w: %d is not draining", ErrNoSuchMinidisk, id)
	}
	delete(d.disks, id)
	if d.notify != nil {
		d.notify(Event{Kind: EventDecommission, Minidisk: id, Info: disk.info})
	}
	return nil
}

// Brick kills the whole device and emits EventBrick.
func (d *MemDevice) Brick() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.brick {
		return
	}
	d.brick = true
	d.disks = map[MinidiskID]*memDisk{}
	if d.notify != nil {
		d.notify(Event{Kind: EventBrick})
	}
}

// Minidisks implements Device, returning non-draining disks in ID order.
func (d *MemDevice) Minidisks() []MinidiskInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]MinidiskInfo, 0, len(d.disks))
	for _, disk := range d.disks {
		if !disk.draining {
			out = append(out, disk.info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (d *MemDevice) lookup(md MinidiskID, lba int, buf []byte) (*memDisk, error) {
	if d.brick {
		return nil, ErrBricked
	}
	disk, ok := d.disks[md]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchMinidisk, md)
	}
	if lba < 0 || lba >= disk.info.LBAs {
		return nil, fmt.Errorf("%w: %d (minidisk has %d)", ErrBadLBA, lba, disk.info.LBAs)
	}
	if len(buf) != OPageSize {
		return nil, ErrBufSize
	}
	return disk, nil
}

// Read implements Device. Unwritten LBAs read as zeros.
func (d *MemDevice) Read(md MinidiskID, lba int, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	disk, err := d.lookup(md, lba, buf)
	if err != nil {
		return err
	}
	if data, ok := disk.data[lba]; ok {
		copy(buf, data)
	} else {
		for i := range buf {
			buf[i] = 0
		}
	}
	return nil
}

// Write implements Device. Draining minidisks reject writes.
func (d *MemDevice) Write(md MinidiskID, lba int, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	disk, err := d.lookup(md, lba, buf)
	if err != nil {
		return err
	}
	if disk.draining {
		return fmt.Errorf("%w: %d (draining)", ErrNoSuchMinidisk, md)
	}
	disk.data[lba] = append([]byte(nil), buf...)
	return nil
}

// Trim implements Device.
func (d *MemDevice) Trim(md MinidiskID, lba int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.brick {
		return ErrBricked
	}
	disk, ok := d.disks[md]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchMinidisk, md)
	}
	if lba < 0 || lba >= disk.info.LBAs {
		return fmt.Errorf("%w: %d", ErrBadLBA, lba)
	}
	delete(disk.data, lba)
	return nil
}

// Notify implements Device.
func (d *MemDevice) Notify(fn func(Event)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.notify = fn
}

var (
	_ Device  = (*MemDevice)(nil)
	_ Drainer = (*MemDevice)(nil)
)
