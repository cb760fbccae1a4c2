package difs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"salamander/internal/blockdev"
	"salamander/internal/ec"
	"salamander/internal/sim"
	"salamander/internal/stats"
	"salamander/internal/store"
	"salamander/internal/telemetry"
)

// The shard type: one metadata shard of a Cluster. A shard owns a disjoint,
// consistently hashed slice of the object namespace (ShardOf) under its own
// lock — its objects, its view of the nodes and targets, its repair queue,
// RNG stream, placement epoch, pending device events, and manifest store
// view with its dirty set. Every locked body of the package is a shard
// method; the exported Cluster (difs.go) only routes to shards and
// aggregates over them, and a shard is never handed to callers. A cluster
// of one shard is the same code with one entry in the slice.
//
// What stays deterministic: each shard's RNG stream is derived from the
// cluster seed and its shard index alone, named operations route by pure
// hash, device events are applied in fan-out order, and cross-shard passes
// (repair, invariants, aggregate views) walk shards in index order. A given
// seed therefore produces byte-identical chaos reports at a fixed shard
// count, regardless of goroutine scheduling.
//
// What is physically shared: devices and their slots. The slot ledger
// (ledger.go) is the single source of truth for free slots so two shards can
// never place into the same physical slot; per-shard placement decisions
// race only on slot *counts*, which at worst costs a placement retry
// (writeChunk returns ErrNoSpace when it loses an allocation race).

type targetState uint8

const (
	tLive targetState = iota
	// tDraining: grace-period decommission in progress — readable, not
	// placeable; released back to the device once its chunks are
	// re-replicated.
	tDraining
	tDead
)

// target is one shard's view of a minidisk in service as a placement
// target. Which of its slots are free is the ledger's business; chunks
// holds only the slots this shard occupies.
type target struct {
	key    targetKey
	info   blockdev.MinidiskInfo
	chunks map[int]*chunk // slot -> occupant
	state  targetState
	// down marks the target's node as crashed: the minidisk (and its data)
	// still exists but is unreachable until the node restarts. Down targets
	// are neither placeable nor readable, yet their replicas are retained —
	// a rejoining node re-registers them.
	down bool
	dev  blockdev.Device
	book *ledgerDisk // the minidisk's slot book in the shared ledger
}

func (t *target) live() bool     { return t.state == tLive && !t.down }
func (t *target) readable() bool { return t.state != tDead && !t.down }

// chunksInSlotOrder returns the target's chunks sorted by slot. Repair
// enqueue order feeds every downstream placement decision, so it must be
// independent of map iteration order for chaos runs to replay byte-identically.
func (t *target) chunksInSlotOrder() []*chunk {
	slots := make([]int, 0, len(t.chunks))
	for s := range t.chunks {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	out := make([]*chunk, len(slots))
	for i, s := range slots {
		out[i] = t.chunks[s]
	}
	return out
}

type replica struct {
	tgt  *target
	slot int
}

type chunk struct {
	obj      *object
	idx      int
	replicas []replica
	// sum is the CRC-32C of the chunk's padded content, fixed at placement.
	// Recovery verifies every persisted replica against it before trusting
	// the bytes — a torn or stale slot is quarantined, never served.
	sum uint32
	// stripe links erasure-coded shards: chunks of one stripe are the k
	// data + m parity shards of an RS stripe, each stored once. nil for
	// replicated chunks.
	stripe   *stripe
	shardIdx int
}

// stripe groups the k+m shard chunks of one erasure-coded stripe.
type stripe struct {
	chunks []*chunk // len k+m; [0,k) data, [k,k+m) parity
}

type object struct {
	name    string
	size    int
	chunks  []*chunk  // data chunks, in order
	stripes []*stripe // non-nil only for EC objects
	// installed is set once the object enters the namespace (install). Until
	// then its chunks appear in no manifest.
	installed bool
}

type node struct {
	id      NodeID
	devices []blockdev.Device
	// targets is the shard's target order: the node's targets by key. No
	// element is ever overwritten in place, so callers may range over it
	// while targets come and go.
	targets []*target
}

// shard is one namespace slice of a Cluster. mu guards every field below it
// except pend, which has its own leaf lock. The lock order is shard →
// device: shard methods call into devices while holding mu, never the
// reverse — which is why device events are queued on pend, not applied from
// the device's callback.
type shard struct {
	id  int
	cfg Config      // the cluster's config (Seed already folded into rng)
	led *slotLedger // the cluster's slot book, shared by every shard

	mu      sync.Mutex
	rng     *stats.RNG
	nodes   []*node
	targets map[targetKey]*target
	objects map[string]*object
	repairQ []*chunk
	queued  map[*chunk]bool
	flaps   map[NodeID]int // crash/restart cycles per node (quarantine input)
	tele    cTele
	codec   *ec.Code // non-nil in erasure-coding mode

	// meta is this shard's view of the durable manifest store attached by
	// AttachMeta (nil = metadata lives only in RAM). metaDirty tracks object
	// names whose manifest must be rewritten; flushMeta drains it at the end
	// of every mutation, which makes the manifest write the commit point for
	// acked operations.
	meta      store.Store
	metaDirty map[string]bool

	// epoch is the placement epoch: bumped on every membership change
	// (target added/drained/lost, node crash/restart) so clients of
	// ShardInfos can detect placement-relevant churn per shard.
	epoch uint64
	// countEvents gates once-per-event counters. Device events and node
	// crash/restarts reach every shard; only the first owned one counts
	// them, keeping telemetry identical across shard counts and subsets.
	countEvents bool

	// pend buffers device events fanned out by the Cluster until the next
	// settleLocked under mu. pendMu is a leaf lock: it is taken with a
	// device lock held, so nothing holding it may call a device or take mu.
	pendMu sync.Mutex
	pend   []queuedEvent
}

// queuedEvent is one queued device notification.
type queuedEvent struct {
	nid NodeID
	dev int
	e   blockdev.Event
}

// shardSeedStride separates the shards' RNG streams: shard i seeds its
// xoshiro stream with Seed + i*stride (the 64-bit golden ratio, so nearby
// seeds land far apart). The streams depend only on (Seed, shard index) —
// the determinism contract's first leg.
const shardSeedStride = 0x9E3779B97F4A7C15

// newShard builds shard id of a cluster. All shards of a cluster share one
// telemetry registry (so counters are cluster-global) and one slot ledger.
func newShard(id int, cfg Config, led *slotLedger, reg *telemetry.Registry, countEvents bool) (*shard, error) {
	var codec *ec.Code
	if cfg.ECDataShards > 0 || cfg.ECParityShards > 0 {
		var err error
		codec, err = ec.New(cfg.ECDataShards, cfg.ECParityShards)
		if err != nil {
			return nil, err
		}
	}
	return &shard{
		id:          id,
		cfg:         cfg,
		led:         led,
		rng:         stats.NewRNG(cfg.Seed + uint64(id)*shardSeedStride),
		targets:     map[targetKey]*target{},
		objects:     map[string]*object{},
		queued:      map[*chunk]bool{},
		flaps:       map[NodeID]int{},
		tele:        bindTele(reg, nil),
		codec:       codec,
		countEvents: countEvents,
	}, nil
}

// rebindTele points the shard's handles at reg. Every shard of a cluster
// shares one set of counters, so exactly one of them carries the
// accumulated values over.
func (sh *shard) rebindTele(reg *telemetry.Registry, tr *telemetry.Tracer, carryOver bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old := sh.tele
	sh.tele = bindTele(reg, tr)
	if !carryOver {
		return
	}
	carry := func(dst, src *telemetry.Counter) {
		if dst != src {
			dst.Add(src.Value())
		}
	}
	carry(sh.tele.putBytes, old.putBytes)
	carry(sh.tele.getBytes, old.getBytes)
	carry(sh.tele.recoveryBytes, old.recoveryBytes)
	carry(sh.tele.recoveryReadBytes, old.recoveryReadBytes)
	carry(sh.tele.recoveryOps, old.recoveryOps)
	carry(sh.tele.degradedReads, old.degradedReads)
	carry(sh.tele.lostChunks, old.lostChunks)
	carry(sh.tele.decommissionEvents, old.decommissionEvents)
	carry(sh.tele.regenerateEvents, old.regenerateEvents)
	carry(sh.tele.brickEvents, old.brickEvents)
	carry(sh.tele.drainEvents, old.drainEvents)
	carry(sh.tele.releases, old.releases)
	carry(sh.tele.localSourceRepairs, old.localSourceRepairs)
	carry(sh.tele.repairRetries, old.repairRetries)
	carry(sh.tele.faultsInjected, old.faultsInjected)
	carry(sh.tele.faultsRecovered, old.faultsRecovered)
	carry(sh.tele.nodeCrashes, old.nodeCrashes)
	carry(sh.tele.nodeRestarts, old.nodeRestarts)
	carry(sh.tele.quarantines, old.quarantines)
	carry(sh.tele.recoverObjects, old.recoverObjects)
	carry(sh.tele.recoverQuarantined, old.recoverQuarantined)
	carry(sh.tele.shardOps, old.shardOps)
	carry(sh.tele.shardEpochs, old.shardEpochs)
}

// handles returns the shard's current telemetry handles.
func (sh *shard) handles() cTele {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.tele
}

// --- membership & events -----------------------------------------------------

// addNode registers a node in this shard's view. It does not subscribe to
// the devices' events: the Cluster owns the single Notify subscription per
// device and fans events out to every shard (fanEvent).
func (sh *shard) addNode(devices ...blockdev.Device) NodeID {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	id := NodeID(len(sh.nodes))
	n := &node{id: id, devices: devices}
	sh.nodes = append(sh.nodes, n)
	for di, dev := range devices {
		for _, info := range dev.Minidisks() {
			sh.addTarget(id, di, info)
		}
	}
	return id
}

func (sh *shard) addTarget(nid NodeID, dev int, info blockdev.MinidiskInfo) {
	slots := info.LBAs / sh.cfg.ChunkOPages
	if slots == 0 {
		return // minidisk smaller than a chunk: unusable
	}
	if _, ok := sh.targets[targetKey{nid, dev, info.ID}]; ok {
		// Duplicate registration (devices never reuse minidisk IDs, so this
		// is a duplicated regenerate event): keep the existing target.
		return
	}
	t := &target{
		key:    targetKey{nid, dev, info.ID},
		info:   info,
		chunks: map[int]*chunk{},
		state:  tLive,
		dev:    sh.nodes[nid].devices[dev],
	}
	t.book = sh.led.register(t.key, slots, t.dev)
	sh.targets[t.key] = t
	n := sh.nodes[nid]
	if i := sort.Search(len(n.targets), func(i int) bool { return t.key.less(n.targets[i].key) }); i < len(n.targets) {
		n.targets = slices.Concat(n.targets[:i], []*target{t}, n.targets[i:])
	} else {
		n.targets = append(n.targets, t)
	}
	sh.bumpEpoch()
}

// unlistTarget removes a retired target from the shard's view.
func (sh *shard) unlistTarget(t *target) {
	delete(sh.targets, t.key)
	n := sh.nodes[t.key.node]
	n.targets = slices.DeleteFunc(slices.Clone(n.targets), func(x *target) bool { return x == t })
}

// bumpEpoch advances the shard's placement epoch. Callers hold the lock.
func (sh *shard) bumpEpoch() {
	sh.epoch++
	sh.tele.shardEpochs.Inc()
}

// enqueueEvent queues one fanned-out device event for the next settle. It
// runs on the emitting device's goroutine with the device lock held, so it
// must not call back into a device or take the shard lock.
func (sh *shard) enqueueEvent(se queuedEvent) {
	sh.pendMu.Lock()
	sh.pend = append(sh.pend, se)
	sh.pendMu.Unlock()
}

// takePending empties the event queue.
func (sh *shard) takePending() []queuedEvent {
	sh.pendMu.Lock()
	defer sh.pendMu.Unlock()
	pending := sh.pend
	sh.pend = nil
	return pending
}

// settleLocked applies the shard's pending device events, in fan-out order.
// Every entry point calls it right after taking the lock, so the view
// catches up with physical reality before it acts; in-lock emitters that
// need an event visible immediately (writeChunk's commit re-check,
// readAnyReplica's failover) settle right after the device call returns.
// Queuing instead of applying inline keeps out-of-band device mutations
// safe: an operator (or test) failing a minidisk from its own goroutine
// never touches shard metadata without the lock. applyEvent never calls a
// device, so no new events can arrive from this goroutine while draining.
func (sh *shard) settleLocked() {
	for _, se := range sh.takePending() {
		sh.applyEvent(se.nid, se.dev, se.e)
	}
}

// settle catches the shard up with its pending events.
func (sh *shard) settle() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.settleLocked()
}

// applyEvent mutates the shard's view for one device event. Callers hold
// the shard lock.
func (sh *shard) applyEvent(nid NodeID, dev int, e blockdev.Event) {
	switch e.Kind {
	case blockdev.EventDecommission:
		if sh.countEvents {
			sh.tele.decommissionEvents.Inc()
		}
		sh.loseTarget(targetKey{nid, dev, e.Minidisk})
	case blockdev.EventDrain:
		if sh.countEvents {
			sh.tele.drainEvents.Inc()
		}
		sh.drainTarget(targetKey{nid, dev, e.Minidisk})
	case blockdev.EventRegenerate:
		if sh.countEvents {
			sh.tele.regenerateEvents.Inc()
		}
		sh.addTarget(nid, dev, e.Info)
	case blockdev.EventBrick:
		if sh.countEvents {
			sh.tele.brickEvents.Inc()
		}
		for _, t := range sh.targetsOfDevice(nid, dev) {
			if t.state != tDead {
				sh.loseTarget(t.key)
			}
		}
	}
}

// targetsOfNode lists a node's targets in key order (read-only).
func (sh *shard) targetsOfNode(nid NodeID) []*target {
	if nid < 0 || int(nid) >= len(sh.nodes) {
		return nil
	}
	return sh.nodes[nid].targets
}

// allTargets lists every target of the shard in key order.
func (sh *shard) allTargets() []*target {
	var out []*target
	for _, n := range sh.nodes {
		out = append(out, n.targets...)
	}
	return out
}

func (sh *shard) targetsOfDevice(nid NodeID, dev int) []*target {
	ts := sh.targetsOfNode(nid)
	lo := sort.Search(len(ts), func(i int) bool { return ts[i].key.dev >= dev })
	hi := sort.Search(len(ts), func(i int) bool { return ts[i].key.dev > dev })
	return ts[lo:hi:hi]
}

// loseTarget marks a minidisk gone and queues its chunks for repair.
func (sh *shard) loseTarget(key targetKey) {
	t, ok := sh.targets[key]
	if !ok || t.state == tDead {
		return
	}
	t.state = tDead
	// Drop the ledger entry too: the disk is gone physically, so its slots
	// must never be handed out again. Every shard processes the same loss
	// (events fan out; error-driven losses replay identically), so the
	// idempotent drop is consistent across shards.
	sh.led.drop(key)
	for _, ch := range t.chunksInSlotOrder() {
		// Drop the dead replica from the chunk.
		kept := ch.replicas[:0]
		for _, r := range ch.replicas {
			if r.tgt != t {
				kept = append(kept, r)
			}
		}
		ch.replicas = kept
		sh.markDirty(ch.obj.name)
		sh.enqueueRepair(ch)
	}
	t.chunks = map[int]*chunk{}
	sh.unlistTarget(t)
	sh.bumpEpoch()
}

// drainTarget handles a grace-period decommission: the minidisk stops
// receiving placements, its chunks are queued for re-replication, and its
// replicas stay readable as repair sources until Release.
func (sh *shard) drainTarget(key targetKey) {
	t, ok := sh.targets[key]
	if !ok || t.state != tLive {
		return
	}
	t.state = tDraining
	for _, ch := range t.chunksInSlotOrder() {
		sh.enqueueRepair(ch)
	}
	sh.bumpEpoch()
}

func (sh *shard) enqueueRepair(ch *chunk) {
	if !sh.queued[ch] {
		sh.queued[ch] = true
		sh.repairQ = append(sh.repairQ, ch)
	}
}

// --- views -------------------------------------------------------------------

func (sh *shard) pendingRepairs() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.settleLocked()
	return len(sh.repairQ)
}

func (sh *shard) nodeInfos() []NodeInfo {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.settleLocked()
	out := make([]NodeInfo, len(sh.nodes))
	for i, n := range sh.nodes {
		ni := NodeInfo{
			ID:          n.id,
			Devices:     len(n.devices),
			Flaps:       sh.flaps[n.id],
			Quarantined: sh.cfg.FlapLimit > 0 && sh.flaps[n.id] > sh.cfg.FlapLimit,
		}
		for _, t := range sh.targetsOfNode(n.id) {
			switch t.state {
			case tLive:
				ni.LiveTargets++
			case tDraining:
				ni.DrainingTargets++
			case tDead:
				ni.DeadTargets++
			}
			if t.down {
				ni.DownTargets++
			}
		}
		ni.Down = ni.DownTargets > 0
		out[i] = ni
	}
	return out
}

func (sh *shard) capacity() (total, free int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.settleLocked()
	sh.led.mu.Lock()
	defer sh.led.mu.Unlock()
	for _, t := range sh.allTargets() {
		if t.live() {
			total += t.info.LBAs / sh.cfg.ChunkOPages
			free += len(t.book.free)
		}
	}
	return total, free
}

func (sh *shard) objectList() []string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.settleLocked()
	return sh.objectNames()
}

func (sh *shard) objectNames() []string {
	out := make([]string, 0, len(sh.objects))
	for name := range sh.objects {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// --- placement ---------------------------------------------------------------

// pickTargets chooses up to want targets on distinct nodes, excluding nodes
// already hosting the chunk: each node's best live target with a free slot
// (emptiest for spread, fullest non-full for pack, ties to the lower
// targetKey), in one pass under the leaf ledger lock, then a random choice
// among those nodes. Other shards allocate concurrently, so a count may be
// stale; writeChunk then returns ErrNoSpace and the caller tries elsewhere.
func (sh *shard) pickTargets(want int, exclude map[NodeID]bool) []*target {
	pack := sh.cfg.Placement == PlacementPack
	out := make([]*target, 0, len(sh.nodes))
	sh.led.mu.Lock()
	for _, n := range sh.nodes {
		if exclude[n.id] {
			continue
		}
		var best *target
		bestFree := 0
		for _, t := range n.targets {
			f := len(t.book.free)
			if f == 0 || !t.live() {
				continue
			}
			if best == nil || (pack && f < bestFree) || (!pack && f > bestFree) {
				best, bestFree = t, f
			}
		}
		if best != nil {
			out = append(out, best)
		}
	}
	sh.led.mu.Unlock()
	sh.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:min(want, len(out))]
}

// writeChunk stores data (exactly ChunkOPages*4KB, already padded) into a
// free slot on t. The slot is allocated atomically from the ledger (losing a
// race with another shard degrades to ErrNoSpace and the placement loop
// tries elsewhere) and committed only after all pages landed.
func (sh *shard) writeChunk(t *target, ch *chunk, data []byte) error {
	slot, ok := sh.led.alloc(t.key)
	if !ok {
		return ErrNoSpace
	}
	base := slot * sh.cfg.ChunkOPages
	for p := 0; p < sh.cfg.ChunkOPages; p++ {
		if err := t.dev.Write(t.key.md, base+p, data[p*blockdev.OPageSize:(p+1)*blockdev.OPageSize]); err != nil {
			sh.led.release(t.key, slot)
			// The write may have triggered this very minidisk's
			// decommission; apply the queued event before reacting so
			// noteDeviceError sees the post-event state, then surface the
			// failure to the placement loop. If the error reveals a stale
			// view (a dropped notification), retire the target now.
			sh.settleLocked()
			sh.noteDeviceError(t, err, true)
			return err
		}
	}
	// The device may have decommissioned or drained the minidisk while we
	// wrote; the replica would be stale or short-lived, so settle queued
	// events and re-check before committing.
	sh.settleLocked()
	if !t.live() {
		sh.led.release(t.key, slot)
		return blockdev.ErrNoSuchMinidisk
	}
	t.chunks[slot] = ch
	ch.replicas = append(ch.replicas, replica{tgt: t, slot: slot})
	sh.markChunkDirty(ch)
	return nil
}

// readChunk fetches a chunk from one replica, retrying transiently failed
// oPages up to ReadRetries times with exponential virtual-time backoff —
// graceful degradation above the device's own retry budget.
func (sh *shard) readChunk(r replica, buf []byte) error {
	dev := r.tgt.dev
	base := r.slot * sh.cfg.ChunkOPages
	for p := 0; p < sh.cfg.ChunkOPages; p++ {
		lba := base + p
		err := dev.Read(r.tgt.key.md, lba, buf[p*blockdev.OPageSize:(p+1)*blockdev.OPageSize])
		for attempt := 1; errors.Is(err, blockdev.ErrUncorrectable) && attempt <= sh.cfg.ReadRetries; attempt++ {
			sh.backoff(dev, attempt)
			sh.tele.repairRetries.Inc()
			sh.tele.tr.Emit(telemetry.Event{
				Kind: telemetry.KindRepairRetry, Layer: "difs",
				LBA: lba, N: int64(attempt), Detail: r.tgt.key.String(),
			})
			err = dev.Read(r.tgt.key.md, lba, buf[p*blockdev.OPageSize:(p+1)*blockdev.OPageSize])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// backoff advances the replica device's virtual clock before a retry
// (RetryBackoff doubling per attempt) — the cluster-scope analogue of §2's
// voltage-adjustment delay. The device takes the delay under its own lock,
// since other shards may be using it; devices without a clock retry
// immediately.
func (sh *shard) backoff(dev blockdev.Device, attempt int) {
	if sh.cfg.RetryBackoff <= 0 {
		return
	}
	if d, ok := dev.(interface{ Delay(sim.Time) }); ok {
		d.Delay(sh.cfg.RetryBackoff << uint(attempt-1))
	}
}

// noteDeviceError reacts to authoritative device errors that reveal a stale
// view — the decommission, drain, or brick notification never arrived
// (dropped host event). The affected target (or whole device) is retired the
// way the event would have done it, so a lost notification degrades into a
// late repair instead of a permanently wedged target.
func (sh *shard) noteDeviceError(t *target, err error, forWrite bool) {
	switch {
	case errors.Is(err, blockdev.ErrBricked):
		for _, dt := range sh.targetsOfDevice(t.key.node, t.key.dev) {
			sh.loseTarget(dt.key)
		}
	case errors.Is(err, blockdev.ErrNoSuchMinidisk):
		if forWrite && t.state == tLive {
			// The minidisk may merely be draining (still readable); treat it
			// as such — repair migrates its chunks and releases it, and if it
			// is in fact fully gone the reads fail over to other replicas.
			sh.drainTarget(t.key)
		} else {
			sh.loseTarget(t.key)
		}
	}
}

func (sh *shard) chunkBytes() int { return sh.cfg.ChunkOPages * blockdev.OPageSize }

// trimSlot hands a slot's pages back to the device.
func (sh *shard) trimSlot(t *target, slot int) {
	base := slot * sh.cfg.ChunkOPages
	for p := 0; p < sh.cfg.ChunkOPages; p++ {
		_ = t.dev.Trim(t.key.md, base+p)
	}
}

// --- object operations ---------------------------------------------------------

func (sh *shard) put(ctx context.Context, name string, data []byte) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.settleLocked()
	sh.tele.shardOps.Inc()
	if _, ok := sh.objects[name]; ok {
		return fmt.Errorf("%w: %q", ErrAlreadyExist, name)
	}
	obj, err := sh.placeObject(ctx, name, data)
	if err != nil {
		_ = sh.flushMeta() // persist any rollback-side replica drops
		return err
	}
	sh.commitObject(obj)
	// The manifest write is the commit point: only after it lands may the
	// caller be acked, so a crash before it leaves (at worst) orphan device
	// pages that recovery reclaims — never a half-acked object.
	return sh.flushMeta()
}

func (sh *shard) replace(ctx context.Context, name string, data []byte) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.settleLocked()
	sh.tele.shardOps.Inc()
	obj, err := sh.placeObject(ctx, name, data)
	if err != nil {
		_ = sh.flushMeta()
		return err
	}
	old := sh.objects[name]
	sh.commitObject(obj)
	// Flush the new manifest BEFORE dropping the old chunks: the durable
	// name swap is the commit point, so a crash in this window leaves either
	// the old object intact (manifest not yet flushed — the new chunks are
	// orphans) or the new one fully referenced (the old chunks are orphans).
	// Trimming the old copy first would destroy acked data on a torn flush.
	if err := sh.flushMeta(); err != nil {
		return err
	}
	if old != nil {
		sh.dropObjectChunks(old)
	}
	return sh.flushMeta()
}

// commitObject installs a fully placed object into the namespace. Callers
// hold the shard lock.
func (sh *shard) commitObject(obj *object) {
	sh.install(obj)
	sh.markDirty(obj.name)
	sh.tele.objectSize.Observe(float64(obj.size))
}

// install enters obj into the namespace under its name.
func (sh *shard) install(obj *object) {
	sh.objects[obj.name] = obj
	obj.installed = true
}

// placeObject places every chunk of a new object without installing it into
// the namespace — put and replace differ only in how they commit the result.
// On any failure the already-placed replicas are rolled back and the shard
// is exactly as before. Callers hold the shard lock.
func (sh *shard) placeObject(ctx context.Context, name string, data []byte) (*object, error) {
	if sh.codec != nil {
		return sh.placeEC(ctx, name, data)
	}
	obj := &object{name: name, size: len(data)}
	cb := sh.chunkBytes()
	nChunks := (len(data) + cb - 1) / cb
	if nChunks == 0 {
		nChunks = 1 // empty object still gets a (zero) chunk for uniformity
	}
	for i := 0; i < nChunks; i++ {
		if err := ctx.Err(); err != nil {
			sh.dropObjectChunks(obj)
			return nil, fmt.Errorf("difs: put %q aborted at chunk %d: %w", name, i, err)
		}
		ch := &chunk{obj: obj, idx: i}
		padded := make([]byte, cb)
		copy(padded, data[min(i*cb, len(data)):min((i+1)*cb, len(data))])
		ch.sum = chunkSum(padded)
		placed := 0
		exclude := map[NodeID]bool{}
		for attempt := 0; attempt < 2*sh.cfg.ReplicationFactor && placed < sh.cfg.ReplicationFactor; attempt++ {
			tgts := sh.pickTargets(sh.cfg.ReplicationFactor-placed, exclude)
			if len(tgts) == 0 {
				break
			}
			for _, t := range tgts {
				exclude[t.key.node] = true
				if err := sh.writeChunk(t, ch, padded); err == nil {
					placed++
				}
			}
		}
		if placed == 0 {
			// Roll back the chunks already placed so a failed put (or the put
			// half of a replace) leaves no orphan replicas behind.
			sh.dropObjectChunks(obj)
			return nil, fmt.Errorf("%w: object %q chunk %d", ErrNoSpace, name, i)
		}
		if placed < sh.cfg.ReplicationFactor {
			sh.enqueueRepair(ch)
		}
		obj.chunks = append(obj.chunks, ch)
		sh.tele.putBytes.Add(uint64(len(padded)) * uint64(placed))
	}
	return obj, nil
}

// getBatch serves a run of names under one lock acquisition, settle and
// metadata flush; each slot succeeds or fails on its own.
func (sh *shard) getBatch(ctx context.Context, names []string) (data [][]byte, errs []error) {
	data = make([][]byte, len(names))
	errs = make([]error, len(names))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.settleLocked()
	// Reads can drop bad replicas; persist that best-effort (a failed flush
	// leaves the names dirty for the next mutation to retry).
	defer func() { _ = sh.flushMeta() }()
	for i, name := range names {
		sh.tele.shardOps.Inc()
		if err := ctx.Err(); err != nil {
			errs[i] = fmt.Errorf("difs: batch get %q aborted: %w", name, err)
			continue
		}
		data[i], errs[i] = sh.get(ctx, name)
	}
	return data, errs
}

func (sh *shard) getOne(ctx context.Context, name string) ([]byte, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.settleLocked()
	sh.tele.shardOps.Inc()
	defer func() { _ = sh.flushMeta() }()
	return sh.get(ctx, name)
}

func (sh *shard) get(ctx context.Context, name string) ([]byte, error) {
	obj, ok := sh.objects[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	cb := sh.chunkBytes()
	out := make([]byte, len(obj.chunks)*cb)
	buf := make([]byte, cb)
	for i, ch := range obj.chunks {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("difs: get %q aborted at chunk %d: %w", name, i, err)
		}
		if err := sh.readAnyReplica(ch, buf); err != nil {
			if ch.stripe == nil {
				return nil, fmt.Errorf("object %q chunk %d: %w", name, i, err)
			}
			// Erasure-coded: rebuild the shard from its stripe.
			if err := sh.reconstructInto(ch, buf); err != nil {
				return nil, fmt.Errorf("object %q chunk %d: %w", name, i, err)
			}
			sh.enqueueRepair(ch)
		}
		copy(out[i*cb:], buf)
		sh.tele.getBytes.Add(uint64(cb))
	}
	return out[:obj.size], nil
}

// readAnyReplica tries replicas in order, queueing repair on any failure.
// A read served while the chunk is under-replicated counts as degraded.
// Draining replicas are readable (the grace-period contract) but do not
// count toward the replication factor.
func (sh *shard) readAnyReplica(ch *chunk, buf []byte) error {
	degraded := sh.liveReplicas(ch) < sh.wantReplicas(ch)
	var firstErr error
	// Iterate a snapshot: dropReplica compacts ch.replicas in place, which
	// would otherwise skip the replica after a failed one.
	for i, r := range append([]replica(nil), ch.replicas...) {
		if !r.tgt.readable() {
			sh.enqueueRepair(ch)
			continue
		}
		err := sh.readChunk(r, buf)
		if err == nil {
			if degraded || i > 0 || firstErr != nil {
				sh.tele.degradedReads.Inc()
			}
			return nil
		}
		if firstErr == nil {
			firstErr = err
		}
		// Media error on this replica: drop it and repair. Authoritative
		// device errors (bricked, no-such-minidisk) mean the failure event
		// was lost; retire the whole target, not just this replica. The
		// failed read may also have fanned a real event into our pend queue
		// — apply it first so we don't double-handle.
		sh.settleLocked()
		sh.noteDeviceError(r.tgt, err, false)
		sh.dropReplica(ch, r)
		sh.enqueueRepair(ch)
	}
	if firstErr == nil {
		firstErr = ErrDataLoss
	}
	return firstErr
}

func (sh *shard) dropReplica(ch *chunk, bad replica) {
	kept := ch.replicas[:0]
	for _, r := range ch.replicas {
		if r != bad {
			kept = append(kept, r)
		}
	}
	ch.replicas = kept
	sh.markChunkDirty(ch)
	if bad.tgt.readable() {
		delete(bad.tgt.chunks, bad.slot)
		// The slot's content is untrusted; trim it back to the device and
		// reuse the slot.
		sh.trimSlot(bad.tgt, bad.slot)
		sh.led.release(bad.tgt.key, bad.slot)
	}
}

func (sh *shard) del(ctx context.Context, name string) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.settleLocked()
	sh.tele.shardOps.Inc()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("difs: delete %q aborted: %w", name, err)
	}
	obj, ok := sh.objects[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	// Durably delete the manifest BEFORE trimming the replicas: a crash
	// mid-delete must leave either the object fully present (unacked delete)
	// or orphan pages that recovery reclaims — never a manifest pointing at
	// trimmed slots.
	delete(sh.objects, name)
	sh.markDirty(name)
	if err := sh.flushMeta(); err != nil {
		sh.objects[name] = obj // delete not acked; keep the object
		return err
	}
	sh.dropObjectChunks(obj)
	// Purge the repair queue lazily: repair skips deleted chunks.
	return sh.flushMeta()
}

// --- repair --------------------------------------------------------------------

func chunkName(ch *chunk) string { return fmt.Sprintf("%s/%d", ch.obj.name, ch.idx) }

// downReplicas counts a chunk's replicas retained on crashed nodes.
func (sh *shard) downReplicas(ch *chunk) int {
	n := 0
	for _, r := range ch.replicas {
		if r.tgt.state != tDead && r.tgt.down {
			n++
		}
	}
	return n
}

// pruneDeadReplicas drops a queued chunk's replicas on targets that died
// since queueing; draining ones stay as sources and down ones as
// retained-but-unreachable data (their node may restart). It reports how
// many kept replicas are down and which draining targets the chunk touches.
func (sh *shard) pruneDeadReplicas(ch *chunk) (downN int, draining []*target) {
	kept := ch.replicas[:0]
	for _, r := range ch.replicas {
		if r.tgt.state == tDead {
			continue
		}
		kept = append(kept, r)
		if r.tgt.down {
			downN++
		} else if r.tgt.state == tDraining {
			draining = append(draining, r.tgt)
		}
	}
	ch.replicas = kept
	return downN, draining
}

// unreadable settles a chunk no replica of which can be read right now: an
// erasure-coded shard is rebuilt from its stripe siblings; a chunk whose
// surviving copies are all on crashed nodes still exists, so it is deferred,
// not declared lost; anything else is lost.
func (sh *shard) unreadable(ch *chunk, repErr *RepairError) {
	switch {
	case ch.stripe != nil && sh.repairShard(ch):
	case sh.downReplicas(ch) > 0:
		sh.enqueueRepair(ch)
		repErr.Deferred++
	default:
		sh.tele.lostChunks.Inc()
		repErr.Lost = append(repErr.Lost, chunkName(ch))
	}
}

// trimExcess finishes a repaired chunk. A restarted node may have revived
// copies that repair already replaced: the excess goes, last live replica
// first (slice order, deterministic). Once fully replicated, the draining
// copies are no longer needed either — except on crashed nodes, whose slots
// can't be trimmed while the node is dark; restart reconciliation frees
// them.
func (sh *shard) trimExcess(ch *chunk) {
	for sh.liveReplicas(ch) > sh.wantReplicas(ch) {
		for i := len(ch.replicas) - 1; i >= 0; i-- {
			if ch.replicas[i].tgt.live() {
				sh.dropReplica(ch, ch.replicas[i])
				break
			}
		}
	}
	if sh.liveReplicas(ch) >= sh.cfg.ReplicationFactor {
		for _, r := range append([]replica(nil), ch.replicas...) {
			if r.tgt.state == tDraining && !r.tgt.down {
				sh.dropReplica(ch, r)
			}
		}
	}
}

// repair drains this shard's repair queue, bracketing the pass with its
// repair_start/repair_end trace pair and repair-bytes histogram sample. A
// shard with nothing queued is not a pass: it emits no such pair.
func (sh *shard) repair(ctx context.Context) (copies int, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.settleLocked()
	defer func() { _ = sh.flushMeta() }()
	if len(sh.repairQ) == 0 {
		return 0, nil
	}
	queue := sh.repairQ
	sh.repairQ = nil
	sh.tele.tr.Emit(telemetry.Event{
		Kind: telemetry.KindRepairStart, Layer: "difs", N: int64(len(queue)),
	})
	bytesBefore := sh.tele.recoveryBytes.Value()
	defer func() {
		written := sh.tele.recoveryBytes.Value() - bytesBefore
		sh.tele.repairBytes.Observe(float64(written))
		sh.tele.tr.Emit(telemetry.Event{
			Kind: telemetry.KindRepairEnd, Layer: "difs",
			N: int64(copies), Bytes: int64(written),
		})
	}()
	var repErr RepairError
	var drainingTouched []*target
	for qi, ch := range queue {
		if cerr := ctx.Err(); cerr != nil {
			// Unprocessed chunks are still in the dedup set but the queue
			// slice was reset at entry, so re-append them directly —
			// enqueueRepair would skip them as already queued.
			sh.repairQ = append(sh.repairQ, queue[qi:]...)
			err = fmt.Errorf("difs: repair aborted with %d chunk(s) unprocessed: %w", len(queue)-qi, cerr)
			break
		}
		delete(sh.queued, ch)
		if sh.objects[ch.obj.name] != ch.obj {
			// Object deleted while queued (possibly re-created under the
			// same name — identity, not name, decides staleness).
			continue
		}
		downN, draining := sh.pruneDeadReplicas(ch)
		drainingTouched = append(drainingTouched, draining...)
		if len(ch.replicas)-downN == 0 {
			sh.unreadable(ch, &repErr)
			continue
		}
		buf := make([]byte, sh.chunkBytes())
		if err := sh.readAnyReplica(ch, buf); err != nil {
			sh.unreadable(ch, &repErr)
			continue
		}
		if len(draining) > 0 {
			sh.tele.localSourceRepairs.Inc()
		}
		sh.tele.recoveryReadBytes.Add(uint64(sh.chunkBytes()))
		for sh.liveReplicas(ch) < sh.wantReplicas(ch) {
			exclude := map[NodeID]bool{}
			for _, r := range ch.replicas {
				exclude[r.tgt.key.node] = true
			}
			tgts := sh.pickTargets(1, exclude)
			if len(tgts) == 0 {
				// No placement now; re-queue for a later Repair (capacity
				// may regenerate).
				sh.enqueueRepair(ch)
				break
			}
			if err := sh.writeChunk(tgts[0], ch, buf); err != nil {
				// Target failed under us; try again next round.
				sh.enqueueRepair(ch)
				break
			}
			copies++
			sh.tele.recoveryOps.Inc()
			sh.tele.recoveryBytes.Add(uint64(sh.chunkBytes()))
		}
		sh.trimExcess(ch)
	}
	// Release draining minidisks that no longer hold any chunk.
	sh.releaseDrained(drainingTouched)
	if err != nil {
		// Aborted by the context; chunk losses observed before the abort are
		// already in the lost_chunks counter and will resurface on the next
		// full pass.
		return copies, err
	}
	if len(repErr.Lost) > 0 {
		return copies, &repErr
	}
	return copies, nil
}

// releaseDrained hands fully drained minidisks back to their devices. The
// disk is only physically released once EVERY shard has migrated its
// replicas off it: each shard retires its local view, and the shard that
// finds the ledger entry fully free (an atomic take) performs the device
// Release — so the releases counter counts each disk once. A Release may
// regenerate the minidisk; the fanned-out event is picked up at the next
// entry point.
func (sh *shard) releaseDrained(drainingTouched []*target) {
	for _, t := range drainingTouched {
		if t.state != tDraining || t.down || len(t.chunks) != 0 {
			continue
		}
		if sh.led.takeIfFullyFree(t.key) {
			if dr, ok := t.dev.(blockdev.Drainer); ok {
				if err := dr.Release(t.key.md); err == nil {
					sh.tele.releases.Inc()
				}
			}
		}
		// Whether or not this shard won the release (other shards may still
		// hold replicas, or the disk is already gone), this shard's view of
		// it is drained: retire the local target.
		t.state = tDead
		sh.unlistTarget(t)
		sh.bumpEpoch()
	}
}

// liveReplicas counts a chunk's replicas on live (non-draining) targets.
func (sh *shard) liveReplicas(ch *chunk) int {
	n := 0
	for _, r := range ch.replicas {
		if r.tgt.live() {
			n++
		}
	}
	return n
}

func (sh *shard) verifyAll(check func(name string, data []byte) error) (bad []string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.settleLocked()
	defer func() { _ = sh.flushMeta() }()
	for _, name := range sh.objectNames() {
		data, err := sh.get(context.Background(), name)
		if err == nil && check != nil {
			err = check(name, data)
		}
		if err != nil {
			bad = append(bad, name)
		}
	}
	return bad
}
