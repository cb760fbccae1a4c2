package difs

import (
	"fmt"
	"sort"
	"sync"

	"salamander/internal/blockdev"
)

// targetKey names one minidisk: (node, device index on the node, minidisk).
type targetKey struct {
	node NodeID
	dev  int
	md   blockdev.MinidiskID
}

func (k targetKey) String() string {
	return fmt.Sprintf("n%d/d%d/md%d", k.node, k.dev, k.md)
}

// less is the (node, device, minidisk) order every deterministic walk over
// targets uses.
func (k targetKey) less(o targetKey) bool {
	if k.node != o.node {
		return k.node < o.node
	}
	if k.dev != o.dev {
		return k.dev < o.dev
	}
	return k.md < o.md
}

// ledgerDisk is one minidisk's physical slot book, guarded by the ledger
// mutex. Every shard's target for the minidisk points at it.
type ledgerDisk struct {
	cap  int
	free []int
	dev  blockdev.Device
}

// slotLedger is the cluster's free-slot accounting — the only slot book.
// Every shard sees the same physical minidisks; the ledger guarantees a slot
// is handed to at most one shard. Its mutex is a leaf lock: holders never
// call devices or take a shard lock.
type slotLedger struct {
	mu    sync.Mutex
	disks map[targetKey]*ledgerDisk
}

func newSlotLedger() *slotLedger {
	return &slotLedger{disks: map[targetKey]*ledgerDisk{}}
}

// register opens a disk's slot book and returns it (idempotent — every shard
// registers the same disk on AddNode/regenerate; the first wins).
func (l *slotLedger) register(key targetKey, slots int, dev blockdev.Device) *ledgerDisk {
	l.mu.Lock()
	defer l.mu.Unlock()
	if d, ok := l.disks[key]; ok {
		return d
	}
	d := &ledgerDisk{cap: slots, dev: dev}
	// Descending free list: alloc pops the tail, so slots are handed out
	// 0,1,2,….
	for s := slots - 1; s >= 0; s-- {
		d.free = append(d.free, s)
	}
	l.disks[key] = d
	return d
}

// drop closes a disk's slot book (idempotent — every shard processes the
// same decommission/brick event). It empties the book too, so a shard yet
// to settle the event reads 0 free through its target's pointer.
func (l *slotLedger) drop(key targetKey) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if d := l.disks[key]; d != nil {
		d.free = nil
		delete(l.disks, key)
	}
}

// alloc pops a free slot. ok=false when the disk is gone or full — which can
// happen right after a free-count snapshot, because other shards allocate
// concurrently.
func (l *slotLedger) alloc(key targetKey) (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.disks[key]
	if d == nil || len(d.free) == 0 {
		return 0, false
	}
	s := d.free[len(d.free)-1]
	d.free = d.free[:len(d.free)-1]
	return s, true
}

// claim removes a specific slot from the free list (recovery re-seating a
// manifest-listed replica). Removal preserves list order so parallel
// per-shard recovery leaves a deterministic free list. Returns whether the
// slot was free — a second claim of the same slot (a corrupt or cross-linked
// manifest) fails and quarantines its replica.
func (l *slotLedger) claim(key targetKey, slot int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.disks[key]
	if d == nil {
		return false
	}
	for i, s := range d.free {
		if s == slot {
			d.free = append(d.free[:i], d.free[i+1:]...)
			return true
		}
	}
	return false
}

// release returns a slot to the free list (no-op once the disk is dropped).
func (l *slotLedger) release(key targetKey, slot int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.disks[key]
	if d == nil {
		return
	}
	d.free = append(d.free, slot)
}

// snapshot copies a disk's slot book for lock-free inspection.
func (l *slotLedger) snapshot(key targetKey) (free []int, capacity int, dev blockdev.Device, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.disks[key]
	if d == nil {
		return nil, 0, nil, false
	}
	return append([]int(nil), d.free...), d.cap, d.dev, true
}

// takeIfFullyFree atomically closes a disk's slot book iff every slot is
// free. The one shard this succeeds for performs the physical release of a
// drained minidisk — the others have (or will) merely retire their local
// view of it. Like drop, it empties the book for any pointer still held.
func (l *slotLedger) takeIfFullyFree(key targetKey) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.disks[key]
	if d == nil || len(d.free) != d.cap {
		return false
	}
	d.free = nil
	delete(l.disks, key)
	return true
}

// keysSorted lists registered disks in deterministic key order.
func (l *slotLedger) keysSorted() []targetKey {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]targetKey, 0, len(l.disks))
	for k := range l.disks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	return keys
}
