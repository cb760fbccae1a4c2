package difs

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"salamander/internal/telemetry"
)

// RecoveryReport summarizes what Recover rebuilt and what it refused to
// trust.
type RecoveryReport struct {
	// Objects/Chunks are what the manifests described and recovery
	// installed into the namespace.
	Objects int `json:"objects"`
	Chunks  int `json:"chunks"`
	// VerifiedReplicas read back from their devices with a matching
	// checksum and rejoined the cluster view.
	VerifiedReplicas int `json:"verified_replicas"`
	// QuarantinedReplicas are manifest-listed replicas recovery refused:
	// missing target, out-of-range or double-booked slot, unreadable pages,
	// or a checksum mismatch (a torn chunk write). Their slots stay free
	// and their pages are reclaimed.
	QuarantinedReplicas int `json:"quarantined_replicas"`
	// TornChunks had no valid replica at all (for EC shards the stripe may
	// still reconstruct them lazily).
	TornChunks int `json:"torn_chunks"`
	// RepairsQueued is how many chunks recovery left on the repair queue.
	RepairsQueued int `json:"repairs_queued"`
	// LostObjects cannot currently serve reads: some chunk has zero valid
	// replicas and (for EC) too few stripe survivors. Gets return errors
	// for them — never fabricated bytes.
	LostObjects []string `json:"lost_objects,omitempty"`
	// BadManifests were undecodable or structurally impossible records,
	// moved under "quarantine/".
	BadManifests int `json:"bad_manifests"`
	// Duration is wall-clock recovery time (also observed into the
	// difs.recover_ns histogram).
	Duration time.Duration `json:"duration_ns"`
	// Shards breaks the recovery down per metadata shard: one row per owned
	// shard at every shard count, in shard order (the shard recoveries
	// themselves run in parallel).
	Shards []ShardRecoverStats `json:"shards,omitempty"`
}

// ShardRecoverStats is one shard's slice of a RecoveryReport.
type ShardRecoverStats struct {
	Shard         int `json:"shard"`
	Objects       int `json:"objects"`
	Quarantined   int `json:"quarantined"`
	BadManifests  int `json:"bad_manifests"`
	RepairsQueued int `json:"repairs_queued"`
}

// Recover rebuilds the cluster's object namespace from the manifest store
// attached with AttachMeta. Call it after AddNode has registered every
// node (in the same order as the previous process — node IDs are
// positional) and before serving traffic.
//
// For every manifest record, each listed replica is verified against the
// device: the target minidisk must exist, the slot must be sane, and the
// chunk's bytes must match the manifest checksum. Replicas that fail any
// of these are quarantined (slot left free, pages reclaimed) and the chunk
// is queued for repair from its surviving copies — a torn write degrades
// to redundancy repair, exactly like a failed minidisk. Undecodable
// manifests are moved aside, never guessed at. After reconciliation every
// free slot is trimmed so orphan pages from un-acked operations are
// reclaimed.
//
// Shards recover concurrently — they touch disjoint manifests and claim (not
// allocate) ledger slots, so parallel execution cannot reorder any decision:
// each shard's outcome depends only on its own manifests, and claim
// preserves free-list order. Two manifests claiming one physical slot cannot
// both win; the loser quarantines its replica.
func (c *Cluster) Recover() (*RecoveryReport, error) {
	start := time.Now()
	reps := make([]*RecoveryReport, len(c.owned))
	errs := make([]error, len(c.owned))
	var wg sync.WaitGroup
	for i, sh := range c.owned {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			reps[i], errs[i] = sh.recover()
		}(i, sh)
	}
	wg.Wait()
	agg := &RecoveryReport{}
	var firstErr error
	for i, sh := range c.owned {
		if errs[i] != nil && firstErr == nil {
			firstErr = fmt.Errorf("difs: recover shard %d: %w", sh.id, errs[i])
		}
		rep := reps[i]
		if rep == nil {
			continue
		}
		agg.Objects += rep.Objects
		agg.Chunks += rep.Chunks
		agg.VerifiedReplicas += rep.VerifiedReplicas
		agg.QuarantinedReplicas += rep.QuarantinedReplicas
		agg.TornChunks += rep.TornChunks
		agg.RepairsQueued += rep.RepairsQueued
		agg.BadManifests += rep.BadManifests
		agg.LostObjects = append(agg.LostObjects, rep.LostObjects...)
		agg.Shards = append(agg.Shards, ShardRecoverStats{
			Shard:         sh.id,
			Objects:       rep.Objects,
			Quarantined:   rep.QuarantinedReplicas,
			BadManifests:  rep.BadManifests,
			RepairsQueued: rep.RepairsQueued,
		})
	}
	sort.Strings(agg.LostObjects)
	if firstErr != nil {
		return agg, firstErr
	}
	// Reclaim orphan pages exactly once, after every shard has claimed its
	// verified slots: whatever is still free belongs to no manifest.
	c.trimLedgerFree()
	agg.Duration = time.Since(start)
	tele := c.first().handles()
	tele.recoverNs.Observe(float64(agg.Duration.Nanoseconds()))
	tele.tr.Emit(telemetry.Event{
		Kind: telemetry.KindRecover, Layer: "difs", N: int64(agg.Objects),
		Detail: fmt.Sprintf("chunks=%d verified=%d quarantined=%d torn=%d lost=%d bad_manifests=%d shards=%d",
			agg.Chunks, agg.VerifiedReplicas, agg.QuarantinedReplicas,
			agg.TornChunks, len(agg.LostObjects), agg.BadManifests, len(c.shards)),
	})
	return agg, nil
}

// trimLedgerFree trims every free slot of every registered disk
// (deterministic order), so chunk data from un-acked puts (placed but never
// committed to a manifest) and from quarantined replicas does not survive as
// unaccounted device pages.
func (c *Cluster) trimLedgerFree() {
	for _, key := range c.led.keysSorted() {
		free, _, dev, ok := c.led.snapshot(key)
		if !ok || dev == nil {
			continue
		}
		for _, slot := range free {
			base := slot * c.cfg.ChunkOPages
			for p := 0; p < c.cfg.ChunkOPages; p++ {
				_ = dev.Trim(key.md, base+p)
			}
		}
	}
}

// recover rebuilds this shard's slice of the namespace from its manifests.
// The shard's counters feed the Cluster's aggregate report; duration and the
// trace event are the Cluster's.
func (sh *shard) recover() (*RecoveryReport, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.meta == nil {
		return nil, errors.New("difs: Recover requires AttachMeta first")
	}
	if len(sh.objects) != 0 {
		return nil, fmt.Errorf("difs: Recover on a non-empty namespace (%d objects)", len(sh.objects))
	}
	rep := &RecoveryReport{}
	keys, err := sh.meta.List(objPrefix)
	if err != nil {
		return nil, fmt.Errorf("difs: recover: %w", err)
	}
	for _, key := range keys {
		raw, err := sh.meta.Get(key)
		if err != nil {
			rep.BadManifests++
			continue
		}
		var rec objRec
		name := key[len(objPrefix):]
		if jerr := json.Unmarshal(raw, &rec); jerr != nil || rec.Name != name || rec.Size < 0 {
			sh.quarantineManifest(key, raw, rep)
			continue
		}
		obj, ok := sh.rebuildObject(&rec, rep)
		if !ok {
			sh.quarantineManifest(key, raw, rep)
			continue
		}
		sh.install(obj)
		rep.Objects++
	}
	rep.RepairsQueued = len(sh.repairQ)
	if err := sh.flushMeta(); err != nil {
		return rep, err
	}
	sh.tele.recoverObjects.Add(uint64(rep.Objects))
	sh.tele.recoverQuarantined.Add(uint64(rep.QuarantinedReplicas + rep.BadManifests))
	return rep, nil
}

// quarantineManifest moves an untrusted record aside so it is preserved
// for debugging but never re-read as live metadata.
func (sh *shard) quarantineManifest(key string, raw []byte, rep *RecoveryReport) {
	_ = sh.meta.Put(quarPrefix+key, raw)
	_ = sh.meta.Delete(key)
	rep.BadManifests++
}

// rebuildObject reconstructs one object from its manifest, verifying every
// replica. Returns ok=false for structurally impossible records (the
// caller quarantines them); per-replica damage is handled by degrading to
// repair, not by rejecting the object.
func (sh *shard) rebuildObject(rec *objRec, rep *RecoveryReport) (*object, bool) {
	obj := &object{name: rec.Name, size: rec.Size}
	switch {
	case len(rec.Stripes) > 0:
		if sh.codec == nil || rec.K != sh.codec.K || rec.M != sh.codec.M {
			return nil, false // written under a different EC shape
		}
		if len(rec.Chunks) != 0 {
			return nil, false
		}
		lost := false
		for _, sr := range rec.Stripes {
			if len(sr.Chunks) != rec.K+rec.M {
				return nil, false
			}
			st := &stripe{}
			valid := 0
			for shard, cr := range sr.Chunks {
				if cr.Shard != shard {
					return nil, false
				}
				ch := &chunk{obj: obj, idx: cr.Idx, sum: cr.Sum, stripe: st, shardIdx: shard}
				st.chunks = append(st.chunks, ch)
				sh.recoverReplicas(ch, cr, rep)
				if len(ch.replicas) > 0 {
					valid++
				} else {
					rep.TornChunks++
					sh.enqueueRepair(ch)
				}
				rep.Chunks++
			}
			obj.chunks = append(obj.chunks, st.chunks[:rec.K]...)
			obj.stripes = append(obj.stripes, st)
			if valid < rec.K {
				lost = true
			}
		}
		if lost {
			rep.LostObjects = append(rep.LostObjects, obj.name)
		}
	case rec.K != 0 || rec.M != 0:
		return nil, false // EC shape without stripes
	default:
		lost := false
		for i, cr := range rec.Chunks {
			if cr.Idx != i {
				return nil, false
			}
			ch := &chunk{obj: obj, idx: i, sum: cr.Sum}
			sh.recoverReplicas(ch, cr, rep)
			if len(ch.replicas) == 0 {
				rep.TornChunks++
				lost = true
			}
			if len(ch.replicas) < sh.cfg.ReplicationFactor {
				sh.enqueueRepair(ch)
			}
			obj.chunks = append(obj.chunks, ch)
			rep.Chunks++
		}
		if len(obj.chunks) == 0 {
			return nil, false // every object has at least one chunk
		}
		if lost {
			rep.LostObjects = append(rep.LostObjects, obj.name)
		}
	}
	return obj, true
}

// recoverReplicas verifies each manifest-listed replica against its device
// and installs the ones whose bytes check out. Any discrepancy between the
// manifest and what survived is flushed back at the end of Recover.
func (sh *shard) recoverReplicas(ch *chunk, cr chunkRec, rep *RecoveryReport) {
	buf := make([]byte, sh.chunkBytes())
	for _, rr := range cr.Replicas {
		t, ok := sh.targets[targetKey{node: rr.Node, dev: rr.Dev, md: rr.MD}]
		if !ok || t.state != tLive {
			rep.QuarantinedReplicas++
			sh.markDirty(ch.obj.name)
			continue
		}
		slots := t.info.LBAs / sh.cfg.ChunkOPages
		if rr.Slot < 0 || rr.Slot >= slots || t.chunks[rr.Slot] != nil {
			rep.QuarantinedReplicas++
			sh.markDirty(ch.obj.name)
			continue
		}
		r := replica{tgt: t, slot: rr.Slot}
		err := sh.readChunk(r, buf)
		// The read may have decommissioned the minidisk; catch up before the
		// next manifest entry judges target states.
		sh.settleLocked()
		if err != nil || chunkSum(buf) != ch.sum {
			// Torn or rotted: the slot stays free and trimLedgerFree reclaims
			// the pages. The chunk heals from its other replicas.
			rep.QuarantinedReplicas++
			sh.markDirty(ch.obj.name)
			continue
		}
		if !sh.led.claim(t.key, rr.Slot) {
			rep.QuarantinedReplicas++
			sh.markDirty(ch.obj.name)
			continue
		}
		t.chunks[rr.Slot] = ch
		ch.replicas = append(ch.replicas, r)
		rep.VerifiedReplicas++
	}
}
