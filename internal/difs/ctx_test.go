package difs

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"salamander/internal/blockdev"
	"salamander/internal/stats"
)

// stepCtx is a context whose Err starts returning context.Canceled after it
// has been consulted limit times — a deterministic way to abort a cluster
// operation at an exact chunk boundary.
type stepCtx struct {
	context.Context
	limit int
	calls int
}

func (s *stepCtx) Err() error {
	s.calls++
	if s.calls > s.limit {
		return context.Canceled
	}
	return nil
}

func TestPutCtxCanceledUpFront(t *testing.T) {
	c, _ := memCluster(t, DefaultConfig(), 4, 4, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := c.PutCtx(ctx, "obj", make([]byte, 200000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := c.Get("obj"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aborted put left the object visible: %v", err)
	}
	if bad := c.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants violated after aborted put: %v", bad)
	}
	// Every slot placed during the aborted put must be free again.
	total, free := c.Capacity()
	if total != free {
		t.Fatalf("aborted put leaked slots: total=%d free=%d", total, free)
	}
}

func TestPutCtxAbortMidwayRollsBack(t *testing.T) {
	c, _ := memCluster(t, DefaultConfig(), 4, 4, 64)
	// 200000 bytes = 4 chunks at the default 64KB chunk; abort after chunk 2's
	// check passes (two chunks placed, R=3 copies each).
	err := c.PutCtx(&stepCtx{limit: 2}, "obj", make([]byte, 200000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if bad := c.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants violated after midway abort: %v", bad)
	}
	total, free := c.Capacity()
	if total != free {
		t.Fatalf("midway abort leaked slots: total=%d free=%d", total, free)
	}
	// The name is free for a clean retry.
	if err := c.Put("obj", objData(stats.NewRNG(7), 1000)); err != nil {
		t.Fatalf("retry after aborted put: %v", err)
	}
}

func TestPutCtxAbortECRollsBack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReplicationFactor = 1
	cfg.ECDataShards = 4
	cfg.ECParityShards = 2
	cfg.ChunkOPages = 4
	c, _ := memCluster(t, cfg, 6, 2, 64)
	// Two stripes of data; abort after stripe 1's check passes.
	data := objData(stats.NewRNG(3), 5*4*blockdev.OPageSize)
	err := c.PutCtx(&stepCtx{limit: 1}, "obj", data)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if bad := c.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants violated after aborted EC put: %v", bad)
	}
	total, free := c.Capacity()
	if total != free {
		t.Fatalf("aborted EC put leaked slots: total=%d free=%d", total, free)
	}
}

func TestReplaceAtomicSwap(t *testing.T) {
	c, _ := memCluster(t, DefaultConfig(), 4, 4, 64)
	rng := stats.NewRNG(21)
	old := objData(rng, 100000)
	if err := c.Put("obj", old); err != nil {
		t.Fatal(err)
	}

	// Replace also creates: a fresh name works without a prior Put.
	fresh := objData(rng, 5000)
	if err := c.ReplaceCtx(context.Background(), "new", fresh); err != nil {
		t.Fatalf("replace of a fresh name: %v", err)
	}
	if got, err := c.Get("new"); err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("fresh replace content: %v", err)
	}

	// A successful replace swaps the content and frees the old slots.
	next := objData(rng, 60000)
	if err := c.ReplaceCtx(context.Background(), "obj", next); err != nil {
		t.Fatalf("replace: %v", err)
	}
	if got, err := c.Get("obj"); err != nil || !bytes.Equal(got, next) {
		t.Fatalf("content after replace: %v", err)
	}

	// A replace aborted mid-placement keeps the previous object intact and
	// leaks nothing.
	_, freeBefore := c.Capacity()
	err := c.ReplaceCtx(&stepCtx{limit: 1}, "obj", objData(rng, 150000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got, gerr := c.Get("obj"); gerr != nil || !bytes.Equal(got, next) {
		t.Fatalf("aborted replace destroyed the previous object: %v", gerr)
	}
	if _, free := c.Capacity(); free != freeBefore {
		t.Fatalf("aborted replace leaked slots: free %d -> %d", freeBefore, free)
	}
	if bad := c.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants violated after aborted replace: %v", bad)
	}
}

func TestReplaceNoSpaceKeepsOldObjectEC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReplicationFactor = 1
	cfg.ECDataShards = 4
	cfg.ECParityShards = 2
	cfg.ChunkOPages = 4
	// 6 nodes x 1 minidisk x 8 oPages = 2 slots per node, 12 total. One
	// 1-stripe object takes 6 slots; a 2-stripe replacement needs 12 more.
	c, _ := memCluster(t, cfg, 6, 1, 8)
	rng := stats.NewRNG(22)
	old := objData(rng, 2*blockdev.OPageSize)
	if err := c.Put("obj", old); err != nil {
		t.Fatal(err)
	}
	err := c.ReplaceCtx(context.Background(), "obj", objData(rng, 5*4*blockdev.OPageSize))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	if got, gerr := c.Get("obj"); gerr != nil || !bytes.Equal(got, old) {
		t.Fatalf("failed EC replace destroyed the previous object: %v", gerr)
	}
	if bad := c.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants violated after failed EC replace: %v", bad)
	}
}

func TestGetCtxCanceled(t *testing.T) {
	c, _ := memCluster(t, DefaultConfig(), 4, 4, 64)
	data := objData(stats.NewRNG(5), 200000)
	if err := c.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.GetCtx(ctx, "obj"); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Uncanceled reads still work and return intact content.
	got, err := c.GetCtx(context.Background(), "obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content corrupted after canceled read")
	}
}

func TestDeleteCtxCanceled(t *testing.T) {
	c, _ := memCluster(t, DefaultConfig(), 4, 4, 64)
	if err := c.Put("obj", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.DeleteCtx(ctx, "obj"); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := c.Get("obj"); err != nil {
		t.Fatalf("canceled delete removed the object: %v", err)
	}
}

func TestRepairCtxAbortPreservesQueue(t *testing.T) {
	c, devs := memCluster(t, DefaultConfig(), 5, 4, 64)
	rng := stats.NewRNG(9)
	objs := map[string][]byte{}
	for _, name := range []string{"a", "b", "c", "d"} {
		data := objData(rng, 150000)
		objs[name] = data
		if err := c.Put(name, data); err != nil {
			t.Fatal(err)
		}
	}
	// Kill one device's minidisk to queue repairs.
	if err := devs[0].FailMinidisk(devs[0].Minidisks()[0].ID); err != nil {
		t.Fatal(err)
	}
	pend := c.PendingRepairs()
	if pend == 0 {
		t.Fatal("no repairs queued after decommission")
	}

	// Abort after the first chunk's check: at least one chunk repaired, the
	// rest must stay queued.
	copies, err := c.RepairCtx(&stepCtx{limit: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (copies=%d)", err, copies)
	}
	if got := c.PendingRepairs(); got == 0 || got >= pend {
		t.Fatalf("aborted repair queue: got %d pending, want in (0, %d)", got, pend)
	}
	if bad := c.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants violated after aborted repair: %v", bad)
	}

	// A full pass finishes the job and every object survives.
	if _, err := c.Repair(); err != nil {
		t.Fatalf("follow-up repair: %v", err)
	}
	if got := c.PendingRepairs(); got != 0 {
		t.Fatalf("%d repairs still pending after full pass", got)
	}
	for name, want := range objs {
		got, err := c.Get(name)
		if err != nil {
			t.Fatalf("get %q: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("object %q corrupted", name)
		}
	}
	if bad := c.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants violated after recovery: %v", bad)
	}
}
