package difs

import (
	"fmt"
	"slices"
	"sort"
)

// CheckInvariants verifies the cluster's metadata against the DESIGN.md §6
// invariants visible at this layer:
//
//  1. chunk→target consistency — every replica of every stored object points
//     at a registered, non-dead target whose slot maps back to the chunk;
//  2. replicas of one chunk live on distinct nodes;
//  3. target→chunk consistency — every occupied slot of a reachable target
//     belongs to a stored object that lists the replica (crashed targets are
//     exempt: their metadata is allowed to go stale until restart
//     reconciliation);
//  4. slot conservation — the ledger's free slots plus the slots occupied
//     across all shards exactly cover each minidisk's capacity, with no
//     duplicates, out-of-range slots, or slot claimed by two shards
//     (checkLedgerInvariants);
//  5. repair-queue consistency — every chunk in the dedup set is queued
//     (the queue may hold extra entries for deleted objects; Repair skips
//     those lazily).
//
// It mutates nothing beyond applying pending device events. Returns one
// message per violation (empty when all hold), in deterministic order so
// chaos reports are byte-stable: each shard is checked under its own lock
// (messages prefixed "s<id>: "), then the ledger against all of them.
func (c *Cluster) CheckInvariants() []string {
	var bad []string
	for _, sh := range c.owned {
		sh.mu.Lock()
		sh.settleLocked()
		for _, m := range sh.checkInvariantsLocked() {
			bad = append(bad, fmt.Sprintf("s%d: %s", sh.id, m))
		}
		sh.mu.Unlock()
	}
	return append(bad, c.checkLedgerInvariants()...)
}

func (sh *shard) checkInvariantsLocked() []string {
	var bad []string

	// Targets, in key order; the node lists must be exactly the target map.
	all := sh.allTargets()
	if len(all) != len(sh.targets) {
		bad = append(bad, fmt.Sprintf("node lists hold %d targets, the target map %d", len(all), len(sh.targets)))
	}
	for i, t := range all {
		k := t.key
		if sh.targets[k] != t || (i > 0 && !all[i-1].key.less(k)) {
			bad = append(bad, fmt.Sprintf("target %v listed out of key order or not registered", k))
		}
		if t.state == tDead {
			bad = append(bad, fmt.Sprintf("target %v is dead but still registered", k))
		}
		if t.down {
			continue // stale slots tolerated until restart reconciliation
		}
		occ := make([]int, 0, len(t.chunks))
		for s := range t.chunks {
			occ = append(occ, s)
		}
		sort.Ints(occ)
		for _, s := range occ {
			ch := t.chunks[s]
			if cur, ok := sh.objects[ch.obj.name]; !ok || cur != ch.obj {
				bad = append(bad, fmt.Sprintf("target %v slot %d holds chunk of deleted object %q", k, s, ch.obj.name))
				continue
			}
			if !slices.Contains(ch.replicas, replica{tgt: t, slot: s}) {
				bad = append(bad, fmt.Sprintf("target %v slot %d holds %s but the chunk does not list the replica", k, s, chunkName(ch)))
			}
		}
	}

	// Objects, in name order.
	for _, name := range sh.objectNames() {
		obj := sh.objects[name]
		chunks := obj.chunks
		if len(obj.stripes) > 0 {
			// Erasure-coded: obj.chunks lists only data shards; walk the
			// stripes to cover parity too.
			chunks = nil
			for _, st := range obj.stripes {
				chunks = append(chunks, st.chunks...)
			}
		}
		for _, ch := range chunks {
			nodes := map[NodeID]bool{}
			for _, r := range ch.replicas {
				reg, ok := sh.targets[r.tgt.key]
				if !ok || reg != r.tgt {
					bad = append(bad, fmt.Sprintf("chunk %s replica on unregistered target %v", chunkName(ch), r.tgt.key))
					continue
				}
				if r.tgt.state == tDead {
					bad = append(bad, fmt.Sprintf("chunk %s replica on dead target %v", chunkName(ch), r.tgt.key))
				}
				if got := r.tgt.chunks[r.slot]; got != ch {
					bad = append(bad, fmt.Sprintf("chunk %s replica slot %v/%d maps to a different chunk", chunkName(ch), r.tgt.key, r.slot))
				}
				if nodes[r.tgt.key.node] {
					bad = append(bad, fmt.Sprintf("chunk %s has two replicas on node %d", chunkName(ch), r.tgt.key.node))
				}
				nodes[r.tgt.key.node] = true
			}
		}
	}

	// Every chunk in the dedup set is actually queued. The reverse need not
	// hold: Delete purges the set but leaves queue entries for Repair to
	// skip lazily.
	inQ := map[*chunk]bool{}
	for _, ch := range sh.repairQ {
		inQ[ch] = true
	}
	for ch := range sh.queued {
		if !inQ[ch] {
			bad = append(bad, fmt.Sprintf("chunk %s in dedup set but missing from repair queue", chunkName(ch)))
		}
	}
	return bad
}

// checkLedgerInvariants verifies the slot books against the union of all
// shards' occupied slots: free lists in range and duplicate-free, no
// slot both free and occupied, no slot claimed by two shards, and free +
// occupied covering each registered disk's capacity. Meaningful on a
// quiescent cluster (concurrent ops hold allocations mid-write).
func (c *Cluster) checkLedgerInvariants() []string {
	var bad []string
	// Union of occupied slots, noting the claiming shard.
	occ := map[targetKey]map[int]int{} // disk -> slot -> shard
	for _, sh := range c.owned {
		sh.mu.Lock()
		for _, t := range sh.allTargets() {
			k := t.key
			slots := make([]int, 0, len(t.chunks))
			for slot := range t.chunks {
				slots = append(slots, slot)
			}
			sort.Ints(slots)
			for _, slot := range slots {
				if occ[k] == nil {
					occ[k] = map[int]int{}
				}
				if prev, dup := occ[k][slot]; dup {
					bad = append(bad, fmt.Sprintf("ledger %v slot %d claimed by shards %d and %d", k, slot, prev, sh.id))
					continue
				}
				occ[k][slot] = sh.id
			}
		}
		sh.mu.Unlock()
	}
	for _, key := range c.led.keysSorted() {
		free, capacity, _, ok := c.led.snapshot(key)
		if !ok {
			continue
		}
		seen := map[int]bool{}
		for _, s := range free {
			if s < 0 || s >= capacity {
				bad = append(bad, fmt.Sprintf("ledger %v free slot %d out of range [0,%d)", key, s, capacity))
			}
			if seen[s] {
				bad = append(bad, fmt.Sprintf("ledger %v free slot %d duplicated", key, s))
			}
			seen[s] = true
			if _, isOcc := occ[key][s]; isOcc {
				bad = append(bad, fmt.Sprintf("ledger %v slot %d both free and occupied", key, s))
			}
		}
		if len(free)+len(occ[key]) != capacity {
			bad = append(bad, fmt.Sprintf("ledger %v slot conservation: %d free + %d occupied != %d capacity",
				key, len(free), len(occ[key]), capacity))
		}
	}
	return bad
}
