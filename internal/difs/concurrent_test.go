package difs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"salamander/internal/stats"
)

// TestConcurrentClientOps drives one cluster from several client goroutines
// with disjoint object namespaces — puts, gets, deletes — while a repair
// goroutine churns node decommissions and repair passes. The cluster mutex
// must serialize everything without losing objects or corrupting metadata.
func TestConcurrentClientOps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChunkOPages = 4
	c, _ := memCluster(t, cfg, 6, 4, 64)

	const workers = 4
	var wg sync.WaitGroup
	errCh := make(chan error, workers+1)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(7000 + w))
			stored := map[string][]byte{}
			for op := 0; op < 120; op++ {
				name := fmt.Sprintf("w%d-obj%d", w, rng.Uint64()%16)
				switch rng.Uint64() % 4 {
				case 0:
					if _, ok := stored[name]; !ok {
						continue
					}
					if err := c.Delete(name); err != nil {
						errCh <- fmt.Errorf("worker %d: delete %q: %w", w, name, err)
						return
					}
					delete(stored, name)
				case 1, 2:
					want, ok := stored[name]
					if !ok {
						continue
					}
					got, err := c.Get(name)
					if err != nil {
						errCh <- fmt.Errorf("worker %d: get %q: %w", w, name, err)
						return
					}
					if !bytes.Equal(got, want) {
						errCh <- fmt.Errorf("worker %d: object %q corrupted", w, name)
						return
					}
				default:
					if _, ok := stored[name]; ok {
						continue
					}
					data := objData(rng, 1+int(rng.Uint64()%20000))
					err := c.Put(name, data)
					if errors.Is(err, ErrNoSpace) {
						continue
					}
					if err != nil {
						errCh <- fmt.Errorf("worker %d: put %q: %w", w, name, err)
						return
					}
					stored[name] = data
				}
			}
			errCh <- nil
		}(w)
	}

	wg.Add(1)
	go func() { // repairer: keeps the replication factor healthy
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := c.Repair(); err != nil {
				errCh <- fmt.Errorf("repair: %w", err)
				return
			}
			c.Stats()
			c.PendingRepairs()
			c.Capacity()
		}
		errCh <- nil
	}()

	wg.Wait()
	for i := 0; i < workers+1; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if bad := c.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants violated: %v", bad)
	}
	if bad := c.VerifyAll(nil); len(bad) > 0 {
		t.Fatalf("unreadable objects: %v", bad)
	}
}

// fillCluster stores count deterministic objects and returns their names.
func fillCluster(t *testing.T, c *Cluster, seed uint64, count int) map[string][]byte {
	t.Helper()
	rng := stats.NewRNG(seed)
	objs := map[string][]byte{}
	for i := 0; i < count; i++ {
		name := fmt.Sprintf("obj-%03d", i)
		data := objData(rng, 1+int(rng.Uint64()%30000))
		if err := c.Put(name, data); err != nil {
			t.Fatalf("put %q: %v", name, err)
		}
		objs[name] = data
	}
	return objs
}

// repairUntilQuiet loops a repair function until the pending queue stops
// shrinking, returning total copies created.
func repairUntilQuiet(t *testing.T, c *Cluster, rep func() (int, error)) int {
	t.Helper()
	total := 0
	prev := -1
	for c.PendingRepairs() > 0 && c.PendingRepairs() != prev {
		prev = c.PendingRepairs()
		n, err := rep()
		if err != nil {
			t.Fatalf("repair: %v", err)
		}
		total += n
	}
	return total
}

// TestRepairRestoresReplicationAfterTwoNodeLoss decommissions two nodes and
// lets repair passes restore the replication factor; every object must
// survive intact and the cluster metadata must stay consistent.
func TestRepairRestoresReplicationAfterTwoNodeLoss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChunkOPages = 4
	c, _ := memCluster(t, cfg, 8, 4, 64)
	objs := fillCluster(t, c, 42, 30)

	if n := decommissionNode(c, 0); n == 0 {
		t.Fatal("node 0 had no live targets")
	}
	decommissionNode(c, 1)
	if copies := repairUntilQuiet(t, c, c.Repair); copies == 0 {
		t.Fatal("repair created no copies")
	}
	if bad := c.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants violated: %v", bad)
	}
	for name, want := range objs {
		got, err := c.Get(name)
		if err != nil {
			t.Fatalf("get %q after repair: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("object %q corrupted by repair", name)
		}
	}
}

// decommissionNode retires every live minidisk of a node from placement and
// queues all of its chunks for repair, the way a grace-period drain treats
// one minidisk. The node's replicas stay readable as repair sources until
// Repair moves their chunks. It returns the first shard's count of
// retired minidisks.
func decommissionNode(c *Cluster, id NodeID) int {
	return c.mirrored(func(sh *shard) int {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		sh.settleLocked()
		defer func() { _ = sh.flushMeta() }()
		n := 0
		for _, t := range sh.targetsOfNode(id) {
			if !t.live() {
				continue
			}
			t.state = tDraining
			for _, ch := range t.chunksInSlotOrder() {
				sh.enqueueRepair(ch)
			}
			n++
		}
		if n > 0 {
			sh.bumpEpoch()
		}
		return n
	})
}
