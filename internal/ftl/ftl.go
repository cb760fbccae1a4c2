// Package ftl is the flash-translation layer both device kinds run on.
//
// engine.go holds the Engine: the whole FTL-backed data path — host
// read/write/trim/flush bodies, the level-aware BCH read path with retries
// and erasure hints, the NV write buffer drain, block allocation, page-by-page
// garbage collection with static wear levelling, and the per-fPage
// {status, level, progLevel} table — written once. What differs between the
// baseline SSD (internal/ssd) and the Salamander device (internal/core) is the
// Lifecycle the owning device hands the engine: what happens to blocks and
// pages as flash tires (DESIGN.md §3.1).
//
// This file holds the engine's building blocks: a wear-aware free-block pool,
// a validity map with greedy GC victim selection, a logical-to-physical
// mapping table, and the small non-volatile write buffer of §3.2 that
// coalesces oPage writes into full fPage programs.
//
// Logical keys are opaque int64s; each device packs its own addressing
// (plain LBA for the baseline, minidisk+LBA for Salamander) into them.
package ftl

import (
	"container/heap"
	"fmt"
	"sync"

	"salamander/internal/flash"
)

// OPageAddr locates one oPage slot inside a physical flash page.
type OPageAddr struct {
	PPA  flash.PPA
	Slot int
}

func (a OPageAddr) String() string { return fmt.Sprintf("%v/s%d", a.PPA, a.Slot) }

// NilKey marks an empty slot in the validity map.
const NilKey int64 = -1

// --- free pool -------------------------------------------------------------

type freeBlock struct {
	id  int
	pec uint32
}

type freeHeap []freeBlock

func (h freeHeap) Len() int { return len(h) }
func (h freeHeap) Less(i, j int) bool {
	if h[i].pec != h[j].pec {
		return h[i].pec < h[j].pec
	}
	return h[i].id < h[j].id
}
func (h freeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *freeHeap) Push(x any)   { *h = append(*h, x.(freeBlock)) }
func (h *freeHeap) Pop() any     { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// FreePool hands out erased blocks lowest-PEC first, which is the classic
// dynamic wear-leveling policy: cold spare blocks absorb new writes before
// hot ones are recycled again. Not safe for concurrent use — the device
// layer's lock guards it (allocation order is policy, not a hot path).
type FreePool struct{ h freeHeap }

// Put returns an erased block to the pool.
func (p *FreePool) Put(id int, pec uint32) { heap.Push(&p.h, freeBlock{id, pec}) }

// Get removes and returns the erased block with the lowest wear.
func (p *FreePool) Get() (id int, ok bool) {
	if len(p.h) == 0 {
		return 0, false
	}
	return heap.Pop(&p.h).(freeBlock).id, true
}

// Len reports how many erased blocks are available.
func (p *FreePool) Len() int { return len(p.h) }

// Blocks returns the IDs of all pooled blocks (in heap order, not sorted).
// Salamander's regeneration scans these for claimable limbo pages.
func (p *FreePool) Blocks() []int {
	out := make([]int, len(p.h))
	for i, b := range p.h {
		out[i] = b.id
	}
	return out
}

// --- validity map ------------------------------------------------------------

// ValidMap tracks which logical key occupies each oPage slot and maintains
// per-block valid counts for greedy garbage-collection victim selection.
// Not safe for concurrent use — guarded by the device layer's lock, since
// its slot/count invariants span multiple keys.
type ValidMap struct {
	pagesPerBlock int
	slotsPerPage  int
	slots         []int64 // flattened [block][page][slot]
	valid         []int   // per block
}

// NewValidMap sizes the map for the array; slotsPerPage is the maximum
// number of oPages a physical page can hold (4 for a 16KB fPage).
func NewValidMap(blocks, pagesPerBlock, slotsPerPage int) *ValidMap {
	v := &ValidMap{
		pagesPerBlock: pagesPerBlock,
		slotsPerPage:  slotsPerPage,
		slots:         make([]int64, blocks*pagesPerBlock*slotsPerPage),
		valid:         make([]int, blocks),
	}
	for i := range v.slots {
		v.slots[i] = NilKey
	}
	return v
}

func (v *ValidMap) idx(a OPageAddr) int {
	return (a.PPA.Block*v.pagesPerBlock+a.PPA.Page)*v.slotsPerPage + a.Slot
}

// Set records that key now lives at addr. The slot must be empty — the FTL
// never programs over a live slot.
func (v *ValidMap) Set(a OPageAddr, key int64) {
	i := v.idx(a)
	if v.slots[i] != NilKey {
		panic(fmt.Sprintf("ftl: slot %v already holds key %d", a, v.slots[i]))
	}
	if key == NilKey {
		panic("ftl: cannot set NilKey")
	}
	v.slots[i] = key
	v.valid[a.PPA.Block]++
}

// Clear invalidates addr and returns the key that was there (NilKey if the
// slot was already empty).
func (v *ValidMap) Clear(a OPageAddr) int64 {
	i := v.idx(a)
	key := v.slots[i]
	if key != NilKey {
		v.slots[i] = NilKey
		v.valid[a.PPA.Block]--
	}
	return key
}

// Key returns the occupant of addr.
func (v *ValidMap) Key(a OPageAddr) (int64, bool) {
	k := v.slots[v.idx(a)]
	return k, k != NilKey
}

// ValidCount returns the number of live slots in a block.
func (v *ValidMap) ValidCount(block int) int { return v.valid[block] }

// ClearBlock invalidates every slot in a block (after an erase).
func (v *ValidMap) ClearBlock(block int) {
	base := block * v.pagesPerBlock * v.slotsPerPage
	for i := 0; i < v.pagesPerBlock*v.slotsPerPage; i++ {
		v.slots[base+i] = NilKey
	}
	v.valid[block] = 0
}

// LiveSlots appends the live (addr, key) pairs of a block to dst and
// returns it; GC relocates exactly these.
type SlotEntry struct {
	Addr OPageAddr
	Key  int64
}

// LiveSlots returns the live slots of a block in page order.
func (v *ValidMap) LiveSlots(block int) []SlotEntry {
	var out []SlotEntry
	for p := 0; p < v.pagesPerBlock; p++ {
		for s := 0; s < v.slotsPerPage; s++ {
			a := OPageAddr{flash.PPA{Block: block, Page: p}, s}
			if k, ok := v.Key(a); ok {
				out = append(out, SlotEntry{a, k})
			}
		}
	}
	return out
}

// Victim returns the eligible block with the fewest valid slots (greedy GC
// policy). eligible filters candidates (e.g., excludes free, active, and
// retired blocks). Ties break toward the lowest block ID for determinism.
func (v *ValidMap) Victim(eligible func(block int) bool) (int, bool) {
	best, bestValid := -1, int(^uint(0)>>1)
	for b := range v.valid {
		if !eligible(b) {
			continue
		}
		if v.valid[b] < bestValid {
			best, bestValid = b, v.valid[b]
		}
	}
	return best, best >= 0
}

// --- mapping table -----------------------------------------------------------

// tableShards is the number of lock shards in a Table. Sixteen keeps lock
// contention negligible for a handful of concurrent host/GC goroutines
// while wasting little memory on small tables.
const tableShards = 16

type tableShard struct {
	mu sync.RWMutex
	m  map[int64]OPageAddr
}

// Table maps logical keys to physical oPage slots. It is safe for
// concurrent use: keys hash onto independent lock shards, so host reads,
// host writes, and GC relocation can touch the mapping at the same time.
// Cross-key invariants (e.g. "this slot is referenced by exactly one key")
// are the device layer's to maintain under its own lock.
type Table struct {
	shards [tableShards]tableShard
}

// NewTable returns an empty mapping table.
func NewTable() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].m = map[int64]OPageAddr{}
	}
	return t
}

// shardOf mixes the key so sequential LBAs spread across shards.
func (t *Table) shardOf(key int64) *tableShard {
	h := uint64(key)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return &t.shards[h%tableShards]
}

// Lookup returns the physical location of key.
func (t *Table) Lookup(key int64) (OPageAddr, bool) {
	s := t.shardOf(key)
	s.mu.RLock()
	a, ok := s.m[key]
	s.mu.RUnlock()
	return a, ok
}

// Update points key at addr, returning the previous location if any.
func (t *Table) Update(key int64, addr OPageAddr) (prev OPageAddr, had bool) {
	s := t.shardOf(key)
	s.mu.Lock()
	prev, had = s.m[key]
	s.m[key] = addr
	s.mu.Unlock()
	return prev, had
}

// Delete removes key, returning its previous location if any.
func (t *Table) Delete(key int64) (prev OPageAddr, had bool) {
	s := t.shardOf(key)
	s.mu.Lock()
	prev, had = s.m[key]
	if had {
		delete(s.m, key)
	}
	s.mu.Unlock()
	return prev, had
}

// Len returns the number of mapped keys. Shards are counted one at a time,
// so the total is approximate while writers run concurrently.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// --- write buffer ------------------------------------------------------------

// BufEntry is one buffered oPage write.
type BufEntry struct {
	Key  int64
	Data []byte // nil in metadata-only simulations
}

// WriteBuffer models the small non-volatile buffer of §3.2: host oPage
// writes accumulate here until enough are pending to fill the next fPage.
// Re-writing a buffered key replaces the pending data in place (the NV
// buffer absorbs the overwrite for free). Not safe for concurrent use —
// guarded by the device layer's lock.
type WriteBuffer struct {
	entries []BufEntry
	index   map[int64]int
}

// NewWriteBuffer returns an empty buffer.
func NewWriteBuffer() *WriteBuffer {
	return &WriteBuffer{index: map[int64]int{}}
}

// Push buffers a write, superseding any pending write to the same key.
func (b *WriteBuffer) Push(e BufEntry) {
	if i, ok := b.index[e.Key]; ok {
		b.entries[i] = e
		return
	}
	b.index[e.Key] = len(b.entries)
	b.entries = append(b.entries, e)
}

// Len reports the number of pending oPages.
func (b *WriteBuffer) Len() int { return len(b.entries) }

// Contains reports whether key has a pending write, returning its data.
func (b *WriteBuffer) Contains(key int64) ([]byte, bool) {
	if i, ok := b.index[key]; ok {
		return b.entries[i].Data, true
	}
	return nil, false
}

// Drop removes a pending write (e.g., on Trim).
func (b *WriteBuffer) Drop(key int64) bool {
	i, ok := b.index[key]
	if !ok {
		return false
	}
	last := len(b.entries) - 1
	if i != last {
		b.entries[i] = b.entries[last]
		b.index[b.entries[i].Key] = i
	}
	b.entries = b.entries[:last]
	delete(b.index, key)
	return true
}

// PopN removes and returns the n oldest pending writes (or fewer if the
// buffer is shorter).
func (b *WriteBuffer) PopN(n int) []BufEntry {
	if n > len(b.entries) {
		n = len(b.entries)
	}
	out := make([]BufEntry, n)
	copy(out, b.entries[:n])
	b.entries = b.entries[n:]
	// Reindex the remainder: O(len), acceptable for a buffer of a few
	// dozen oPages.
	for k := range b.index {
		delete(b.index, k)
	}
	for i, e := range b.entries {
		b.index[e.Key] = i
	}
	return out
}
