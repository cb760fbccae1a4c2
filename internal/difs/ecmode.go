package difs

import (
	"context"
	"fmt"
)

// wantReplicas returns the target copy count for a chunk: erasure-coded
// shards are stored once (the stripe's parity is the redundancy);
// replicated chunks carry the configured factor.
func (sh *shard) wantReplicas(ch *chunk) int {
	if ch.stripe != nil {
		return 1
	}
	return sh.cfg.ReplicationFactor
}

// placeEC places an object as Reed-Solomon stripes: k chunk-sized data shards
// plus m parity shards per stripe, each placed once on a distinct node. The
// context is checked per stripe; an aborted put rolls back every placed
// shard, mirroring the ErrNoSpace path. Like placeObject's replicated path it
// does not install the object — the caller commits it.
func (sh *shard) placeEC(ctx context.Context, name string, data []byte) (*object, error) {
	k, m := sh.codec.K, sh.codec.M
	cb := sh.chunkBytes()
	stripeBytes := k * cb
	obj := &object{name: name, size: len(data)}
	nStripes := (len(data) + stripeBytes - 1) / stripeBytes
	if nStripes == 0 {
		nStripes = 1
	}
	for s := 0; s < nStripes; s++ {
		if err := ctx.Err(); err != nil {
			sh.dropObjectChunks(obj)
			return nil, fmt.Errorf("difs: put %q aborted at stripe %d: %w", name, s, err)
		}
		shards := make([][]byte, 0, k+m)
		for j := 0; j < k; j++ {
			padded := make([]byte, cb)
			lo := s*stripeBytes + j*cb
			if lo < len(data) {
				copy(padded, data[lo:min(lo+cb, len(data))])
			}
			shards = append(shards, padded)
		}
		parity, err := sh.codec.EncodeParity(shards)
		if err != nil {
			sh.dropObjectChunks(obj)
			return nil, err
		}
		shards = append(shards, parity...)

		st := &stripe{}
		exclude := map[NodeID]bool{}
		for i, content := range shards {
			ch := &chunk{obj: obj, idx: s*k + min(i, k-1), stripe: st, shardIdx: i, sum: chunkSum(content)}
			st.chunks = append(st.chunks, ch)
			placed := false
			for attempt := 0; attempt < 3 && !placed; attempt++ {
				tgts := sh.pickTargets(1, exclude)
				if len(tgts) == 0 {
					break
				}
				exclude[tgts[0].key.node] = true
				if err := sh.writeChunk(tgts[0], ch, content); err == nil {
					placed = true
				}
			}
			if !placed {
				// Roll back everything placed for this object so a failed
				// Put leaves no orphans.
				sh.dropObjectChunks(obj)
				sh.dropStripeChunks(st)
				return nil, fmt.Errorf("%w: object %q stripe %d shard %d (EC needs %d nodes with space)",
					ErrNoSpace, name, s, i, k+m)
			}
			sh.tele.putBytes.Add(uint64(cb))
		}
		obj.chunks = append(obj.chunks, st.chunks[:k]...)
		obj.stripes = append(obj.stripes, st)
	}
	return obj, nil
}

func (sh *shard) dropStripeChunks(st *stripe) {
	for _, ch := range st.chunks {
		for _, r := range append([]replica(nil), ch.replicas...) {
			sh.dropReplica(ch, r)
		}
		delete(sh.queued, ch)
	}
}

func (sh *shard) dropObjectChunks(obj *object) {
	for _, st := range obj.stripes {
		sh.dropStripeChunks(st)
	}
	if len(obj.stripes) == 0 {
		for _, ch := range obj.chunks {
			for _, r := range append([]replica(nil), ch.replicas...) {
				sh.dropReplica(ch, r)
			}
			delete(sh.queued, ch)
		}
	}
}

// readStripeShards reads as many shards of a stripe as needed for
// reconstruction, charging the reads to recovery accounting when forRepair.
// Returns the shard slice (nil entries for unavailable shards) and how many
// were read.
func (sh *shard) readStripeShards(st *stripe, skip *chunk, forRepair bool) ([][]byte, int) {
	k := sh.codec.K
	cb := sh.chunkBytes()
	shards := make([][]byte, len(st.chunks))
	have := 0
	for i, sib := range st.chunks {
		if sib == skip || have >= k {
			continue
		}
		if len(sib.replicas) == 0 {
			continue
		}
		buf := make([]byte, cb)
		if err := sh.readAnyReplica(sib, buf); err != nil {
			continue
		}
		shards[i] = buf
		have++
		if forRepair {
			sh.tele.recoveryReadBytes.Add(uint64(cb))
		}
	}
	return shards, have
}

// reconstructInto recovers one shard's content from its stripe into buf.
func (sh *shard) reconstructInto(ch *chunk, buf []byte) error {
	shards, have := sh.readStripeShards(ch.stripe, ch, false)
	if have < sh.codec.K {
		return fmt.Errorf("%w: stripe has %d of %d shards", ErrDataLoss, have, sh.codec.K)
	}
	if err := sh.codec.Reconstruct(shards); err != nil {
		return err
	}
	copy(buf, shards[ch.shardIdx])
	sh.tele.degradedReads.Inc()
	return nil
}

// repairShard rebuilds a fully lost erasure-coded shard from its stripe and
// places it on a node distinct from the surviving shards. Returns false if
// the stripe has too few survivors or no placement exists.
func (sh *shard) repairShard(ch *chunk) bool {
	shards, have := sh.readStripeShards(ch.stripe, ch, true)
	if have < sh.codec.K {
		return false
	}
	if err := sh.codec.Reconstruct(shards); err != nil {
		return false
	}
	content := shards[ch.shardIdx]
	exclude := map[NodeID]bool{}
	for _, sib := range ch.stripe.chunks {
		for _, r := range sib.replicas {
			if r.tgt.live() {
				exclude[r.tgt.key.node] = true
			}
		}
	}
	for attempt := 0; attempt < 3; attempt++ {
		tgts := sh.pickTargets(1, exclude)
		if len(tgts) == 0 {
			return false
		}
		exclude[tgts[0].key.node] = true
		if err := sh.writeChunk(tgts[0], ch, content); err == nil {
			sh.tele.recoveryOps.Inc()
			sh.tele.recoveryBytes.Add(uint64(sh.chunkBytes()))
			return true
		}
	}
	return false
}
