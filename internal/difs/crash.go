package difs

import (
	"sort"

	"salamander/internal/telemetry"
)

// CrashNode fail-stops a node: every one of its targets becomes unreachable
// (neither placeable nor readable) but keeps its data — the minidisks still
// exist on the node's devices, the node just is not answering. All affected
// chunks are queued so the next Repair re-establishes the replication factor
// from surviving copies. Returns the number of targets taken down; crashing
// an already-crashed or target-less node is a no-op.
func (c *Cluster) CrashNode(id NodeID) int {
	return c.mirrored(func(sh *shard) int { return sh.crashNode(id) })
}

func (sh *shard) crashNode(id NodeID) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.settleLocked()
	defer func() { _ = sh.flushMeta() }()
	affected := 0
	for _, t := range sh.targetsOfNode(id) {
		if t.down {
			continue
		}
		t.down = true
		for _, ch := range t.chunksInSlotOrder() {
			sh.enqueueRepair(ch)
		}
		affected++
	}
	if affected > 0 {
		sh.bumpEpoch()
		if sh.countEvents {
			sh.tele.nodeCrashes.Inc()
			sh.tele.faultsInjected.Inc()
			sh.tele.tr.Emit(telemetry.Event{
				Kind: telemetry.KindNodeCrash, Layer: "difs",
				Detail: "crash", N: int64(affected),
			})
		}
	}
	return affected
}

// RestartNode brings a crashed node back. Each down target re-registers if
// its minidisk still exists on the device (or is mid-drain); its surviving
// replicas rejoin the cluster view, and its chunks are re-queued so the next
// Repair trims any over-replication created while the node was dark and
// resumes interrupted drains. Slots whose chunk stopped referencing this
// replica while the node was down (the object was deleted) are reconciled
// back to free. Targets whose minidisk was decommissioned in the meantime
// are lost for good.
//
// A node that has crash/restarted more than Config.FlapLimit times is
// quarantined instead: its targets are dropped and their chunks repaired
// from other copies, so a flapping node stops churning the repair queue.
// Returns the number of targets that rejoined.
func (c *Cluster) RestartNode(id NodeID) int {
	return c.mirrored(func(sh *shard) int { return sh.restartNode(id) })
}

func (sh *shard) restartNode(id NodeID) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.settleLocked()
	defer func() { _ = sh.flushMeta() }()
	any := false
	for _, t := range sh.targetsOfNode(id) {
		if t.down {
			any = true
			break
		}
	}
	if !any {
		return 0 // not crashed (or nothing survived): nothing to restart
	}
	sh.flaps[id]++
	quarantine := sh.cfg.FlapLimit > 0 && sh.flaps[id] > sh.cfg.FlapLimit
	revived := 0
	for _, t := range sh.targetsOfNode(id) {
		if !t.down {
			continue
		}
		t.down = false
		if quarantine {
			sh.loseTarget(t.key)
			continue
		}
		if t.state != tDraining && !deviceHasMinidisk(t) {
			// The device retired this minidisk while the node was dark and
			// the notification had nobody to reach.
			sh.loseTarget(t.key)
			continue
		}
		sh.reconcileTarget(t)
		revived++
	}
	sh.bumpEpoch()
	if sh.countEvents {
		sh.tele.nodeRestarts.Inc()
	}
	if quarantine {
		if sh.countEvents {
			sh.tele.quarantines.Inc()
			sh.tele.tr.Emit(telemetry.Event{
				Kind: telemetry.KindNodeCrash, Layer: "difs",
				Detail: "quarantine", N: int64(sh.flaps[id]),
			})
		}
		return 0
	}
	if revived > 0 && sh.countEvents {
		sh.tele.faultsRecovered.Inc()
	}
	if sh.countEvents {
		sh.tele.tr.Emit(telemetry.Event{
			Kind: telemetry.KindNodeCrash, Layer: "difs",
			Detail: "restart", N: int64(revived),
		})
	}
	return revived
}

// NodeDown reports whether any of the node's targets is currently crashed.
func (c *Cluster) NodeDown(id NodeID) bool { return c.first().nodeDown(id) }

func (sh *shard) nodeDown(id NodeID) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.settleLocked()
	for _, t := range sh.targetsOfNode(id) {
		if t.down {
			return true
		}
	}
	return false
}

func deviceHasMinidisk(t *target) bool {
	for _, info := range t.dev.Minidisks() {
		if info.ID == t.key.md {
			return true
		}
	}
	return false
}

// reconcileTarget re-registers a rejoining target: stale slots (whose chunk
// no longer references this replica — e.g. the object was deleted while the
// node was down) are trimmed and freed, and every surviving chunk is queued
// for a repair pass that restores exact replication.
func (sh *shard) reconcileTarget(t *target) {
	slots := make([]int, 0, len(t.chunks))
	for s := range t.chunks {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	for _, slot := range slots {
		ch := t.chunks[slot]
		listed := false
		for _, r := range ch.replicas {
			if r.tgt == t && r.slot == slot {
				listed = true
				break
			}
		}
		cur, objAlive := sh.objects[ch.obj.name]
		if !listed || !objAlive || cur != ch.obj {
			delete(t.chunks, slot)
			sh.trimSlot(t, slot)
			sh.led.release(t.key, slot)
			continue
		}
		sh.enqueueRepair(ch)
	}
}
