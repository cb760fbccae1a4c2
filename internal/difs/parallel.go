package difs

import (
	"context"
	"sync"

	"salamander/internal/blockdev"
)

// plannedDst is one replica placement reserved during the planning phase:
// the slot is already allocated from the ledger so later planning decisions
// see the reservation.
type plannedDst struct {
	tgt  *target
	slot int
	err  error // write outcome, filled by the write phase
}

// repairPlan is the per-chunk unit of work for a parallel repair pass. The
// source read and destination writes are executed off the locking goroutine;
// everything else (placement, commit, failure handling) stays serial.
type repairPlan struct {
	ch          *chunk
	src         replica
	buf         []byte
	dsts        []*plannedDst
	hadDraining bool
	// degraded mirrors readAnyReplica's accounting: the chunk was below its
	// replication target, or the source was not the first replica, so a
	// successful read counts as a degraded read.
	degraded bool
	readErr  error
}

// RepairParallel drains the re-replication queue like Repair, but fans the
// chunk I/O out across per-device worker goroutines: sources are read in
// parallel, then new copies are written in parallel, with at most workers
// devices in flight at once. All metadata decisions — placement, replica
// commits, failure handling — are made serially under the shard lock, and
// device notifications raised by the workers queue up as usual and are
// applied in a deterministic (node, device, sequence) order, so a given state
// yields the same outcome on every run regardless of goroutine scheduling.
//
// workers <= 1 falls back to the serial Repair (byte-identical behaviour).
// Erasure-coded shard rebuilds always run serially. Chunks whose source
// read or destination write fails are re-queued for the next pass instead
// of failing over inline the way Repair does, so a pass may leave work in
// PendingRepairs that the serial path would have finished; callers loop
// until PendingRepairs is stable, exactly as with Repair.
func (c *Cluster) RepairParallel(workers int) (copies int, err error) {
	return c.repairPass(context.Background(), workers)
}

// repairParallel is one shard's parallel pass. Callers hold the shard lock.
func (sh *shard) repairParallel(workers int) (copies int, err error) {
	queue, end := sh.beginRepair()
	defer func() { end(copies) }()

	var repErr RepairError
	var drainingTouched []*target
	var plans []*repairPlan

	// --- planning (serial): filter the queue and reserve placements -------
	for _, ch := range queue {
		delete(sh.queued, ch)
		if sh.objects[ch.obj.name] != ch.obj {
			continue // object deleted (or name reused) while queued
		}
		downN, draining := sh.pruneDeadReplicas(ch)
		drainingTouched = append(drainingTouched, draining...)
		if len(ch.replicas)-downN == 0 {
			sh.unreadable(ch, &repErr) // an EC rebuild runs serially, here
			continue
		}
		// Source: the first readable replica, the same preference order the
		// serial path tries first. Non-readable replicas skipped on the way
		// re-queue the chunk, exactly as readAnyReplica does.
		plan := &repairPlan{ch: ch, hadDraining: len(draining) > 0}
		plan.degraded = sh.liveReplicas(ch) < sh.wantReplicas(ch)
		for i, r := range ch.replicas {
			if !r.tgt.readable() {
				sh.enqueueRepair(ch)
				continue
			}
			plan.src = r
			if i > 0 {
				plan.degraded = true
			}
			break
		}
		if plan.src.tgt == nil {
			sh.enqueueRepair(ch)
			repErr.Deferred++
			continue
		}
		// Destinations: reserve slots now so subsequent placements see them.
		exclude := map[NodeID]bool{}
		for _, r := range ch.replicas {
			exclude[r.tgt.key.node] = true
		}
		need := sh.wantReplicas(ch) - sh.liveReplicas(ch)
		for i := 0; i < need; i++ {
			tgts := sh.pickTargets(1, exclude)
			if len(tgts) == 0 {
				sh.enqueueRepair(ch) // no placement now; retry next pass
				break
			}
			t := tgts[0]
			exclude[t.key.node] = true
			slot, ok := sh.led.alloc(t.key)
			if !ok {
				// Lost a ledger race with another shard; retry next pass.
				sh.enqueueRepair(ch)
				break
			}
			plan.dsts = append(plan.dsts, &plannedDst{tgt: t, slot: slot})
		}
		plan.buf = make([]byte, sh.chunkBytes())
		plans = append(plans, plan)
	}

	// --- read phase (parallel per source device) --------------------------
	byDev := map[targetKey][]*repairPlan{}
	for _, p := range plans {
		k := targetKey{node: p.src.tgt.key.node, dev: p.src.tgt.key.dev}
		byDev[k] = append(byDev[k], p)
	}
	runDeviceGroups(byDev, workers, func(group []*repairPlan) {
		for _, p := range group {
			p.readErr = sh.readChunk(p.src, p.buf)
		}
	})

	// --- write phase (parallel per destination device) --------------------
	type writeTask struct {
		p *repairPlan
		d *plannedDst
	}
	wTasks := map[targetKey][]writeTask{}
	for _, p := range plans {
		if p.readErr != nil {
			continue
		}
		for _, d := range p.dsts {
			k := targetKey{node: d.tgt.key.node, dev: d.tgt.key.dev}
			wTasks[k] = append(wTasks[k], writeTask{p, d})
		}
	}
	runDeviceGroups(wTasks, workers, func(tasks []writeTask) {
		for _, wt := range tasks {
			base := wt.d.slot * sh.cfg.ChunkOPages
			for pg := 0; pg < sh.cfg.ChunkOPages; pg++ {
				if err := wt.d.tgt.dev.Write(wt.d.tgt.key.md, base+pg,
					wt.p.buf[pg*blockdev.OPageSize:(pg+1)*blockdev.OPageSize]); err != nil {
					wt.d.err = err
					break
				}
			}
		}
	})

	// The workers' device calls fanned events into our pend queue in
	// scheduling-dependent order; apply them in (node, device, sequence)
	// order.
	sh.settleSortedLocked()

	// --- commit (serial, plan order) --------------------------------------
	for _, p := range plans {
		ch := p.ch
		if p.readErr != nil {
			// Same handling as a readAnyReplica failure on this replica, but
			// deferred to the next pass instead of failing over inline.
			sh.noteDeviceError(p.src.tgt, p.readErr, false)
			sh.dropReplica(ch, p.src)
			sh.enqueueRepair(ch)
			for _, d := range p.dsts {
				sh.led.release(d.tgt.key, d.slot)
			}
			continue
		}
		if p.degraded {
			sh.tele.degradedReads.Inc()
		}
		if p.hadDraining {
			sh.tele.localSourceRepairs.Inc()
		}
		sh.tele.recoveryReadBytes.Add(uint64(sh.chunkBytes()))
		for _, d := range p.dsts {
			if d.err != nil {
				sh.noteDeviceError(d.tgt, d.err, true)
			}
			if d.err != nil || !d.tgt.live() {
				// Failed, or drained or died under the write (event replay
				// above). The ledger has dropped a dead target's book, so the
				// release is a no-op then.
				sh.led.release(d.tgt.key, d.slot)
				sh.enqueueRepair(ch)
				continue
			}
			d.tgt.chunks[d.slot] = ch
			ch.replicas = append(ch.replicas, replica{tgt: d.tgt, slot: d.slot})
			sh.markChunkDirty(ch)
			copies++
			sh.tele.recoveryOps.Inc()
			sh.tele.recoveryBytes.Add(uint64(sh.chunkBytes()))
		}
		sh.trimExcess(ch)
	}
	// Release draining minidisks that no longer hold any chunk.
	sh.releaseDrained(drainingTouched)
	if len(repErr.Lost) > 0 {
		return copies, &repErr
	}
	return copies, nil
}

// runDeviceGroups runs fn over each device's task group with at most
// workers groups in flight. Task order within a device follows plan order;
// devices are independent, so scheduling order across groups does not
// affect any per-device state.
func runDeviceGroups[T any](groups map[targetKey][]T, workers int, fn func([]T)) {
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		sem <- struct{}{}
		go func(g []T) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(g)
		}(g)
	}
	wg.Wait()
}
