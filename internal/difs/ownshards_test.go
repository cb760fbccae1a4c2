package difs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"salamander/internal/blockdev"
	"salamander/internal/stats"
	"salamander/internal/store"
)

// subsetCluster builds an n-node cluster owning only the given shard subset.
func subsetCluster(t *testing.T, shards int, own []int, n, disks, lbas int) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Shards = shards
	cfg.ChunkOPages = 4
	cfg.OwnShards = own
	c, _ := memCluster(t, cfg, n, disks, lbas)
	return c
}

func TestOwnShardsValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 1
	cfg.OwnShards = []int{0}
	if _, err := NewCluster(cfg); err == nil {
		t.Error("OwnShards accepted on a standalone cluster")
	}
	cfg.Shards = 4
	cfg.OwnShards = []int{0, 4}
	if _, err := NewCluster(cfg); err == nil {
		t.Error("out-of-range OwnShards entry accepted")
	}
	cfg.OwnShards = []int{-1}
	if _, err := NewCluster(cfg); err == nil {
		t.Error("negative OwnShards entry accepted")
	}
	cfg.OwnShards = []int{}
	if _, err := NewCluster(cfg); err == nil {
		t.Error("empty OwnShards accepted")
	}
	// Full coverage (with duplicates) collapses to full ownership.
	cfg.OwnShards = []int{3, 1, 0, 2, 2}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.OwnShards != nil {
		t.Errorf("full coverage did not collapse to nil: %v", c.cfg.OwnShards)
	}
	if got := c.OwnedShards(); len(got) != 4 {
		t.Errorf("OwnedShards = %v, want all 4", got)
	}
}

// TestOwnShardsRouting: a subset-scoped cluster serves exactly the names
// hashing to its shards and rejects the rest with ErrNotOwner — from every
// entry point, including the batch path (per-slot errors).
func TestOwnShardsRouting(t *testing.T) {
	// Golden (shard_test.go): at 4 shards o0→0, o3→0, ""→1, o1→2, o2→2, x→3.
	c := subsetCluster(t, 4, []int{0, 1}, 3, 2, 64)
	rng := stats.NewRNG(7)
	owned, foreign := "o0", "o1"
	data := objData(rng, 9000)

	if err := c.Put(owned, data); err != nil {
		t.Fatalf("put on owned shard: %v", err)
	}
	got, err := c.Get(owned)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get on owned shard: %v", err)
	}
	if err := c.Put(foreign, data); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("put on foreign shard: got %v, want ErrNotOwner", err)
	}
	if err := c.ReplaceCtx(context.Background(), foreign, data); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("replace on foreign shard: got %v, want ErrNotOwner", err)
	}
	if _, err := c.Get(foreign); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("get on foreign shard: got %v, want ErrNotOwner", err)
	}
	if err := c.Delete(foreign); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("delete on foreign shard: got %v, want ErrNotOwner", err)
	}
	if got := c.OwnedShards(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("OwnedShards = %v, want [0 1]", got)
	}

	// Batch: each slot succeeds or fails on its own shard's ownership.
	datas, errs := c.GetBatchCtx(context.Background(), []string{owned, foreign, owned})
	if errs[0] != nil || !bytes.Equal(datas[0], data) {
		t.Fatalf("batch slot 0 (owned): %v", errs[0])
	}
	if !errors.Is(errs[1], ErrNotOwner) {
		t.Fatalf("batch slot 1 (foreign): got %v, want ErrNotOwner", errs[1])
	}
	if errs[2] != nil || !bytes.Equal(datas[2], data) {
		t.Fatalf("batch slot 2 (owned): %v", errs[2])
	}

	// Aggregate views cover only the owned subset.
	infos := shardInfos(c)
	if len(infos) != 2 || infos[0].ID != 0 || infos[1].ID != 1 {
		t.Fatalf("shard infos = %+v, want shards 0 and 1", infos)
	}
	if objs := c.Objects(); len(objs) != 1 || objs[0] != owned {
		t.Fatalf("Objects = %v", objs)
	}
	if bad := c.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants: %v", bad)
	}
	if bad := c.VerifyAll(nil); len(bad) > 0 {
		t.Fatalf("VerifyAll: %v", bad)
	}
}

// TestOwnShardsClaimStamps: processes sharing one manifest store must hold
// disjoint subsets. Claims persist, so a same-subset reopen succeeds while
// any overlapping open — including a full-ownership one — is refused.
func TestOwnShardsClaimStamps(t *testing.T) {
	st := store.NewMem()
	attach := func(own []int) error {
		cfg := DefaultConfig()
		cfg.Shards = 4
		cfg.ChunkOPages = 4
		cfg.OwnShards = own
		c, _ := memCluster(t, cfg, 2, 2, 64)
		_, err := c.AttachMeta(st.Reopen())
		return err
	}
	if err := attach([]int{0, 1}); err != nil {
		t.Fatalf("first subset: %v", err)
	}
	if err := attach([]int{2, 3}); err != nil {
		t.Fatalf("disjoint subset: %v", err)
	}
	if err := attach([]int{1, 2}); err == nil {
		t.Error("overlapping subset attached over existing claims")
	}
	if err := attach([]int{0, 1}); err != nil {
		t.Errorf("same-subset reopen refused: %v", err)
	}
	if err := attach(nil); err == nil {
		t.Error("full-ownership open accepted a subset-claimed store")
	}
	// A different shard count is refused before any claim is considered.
	cfg := DefaultConfig()
	cfg.Shards = 8
	cfg.ChunkOPages = 4
	cfg.OwnShards = []int{4, 5}
	c, _ := memCluster(t, cfg, 2, 2, 64)
	if _, err := c.AttachMeta(st.Reopen()); err == nil {
		t.Error("subset open under a different shard count accepted")
	}
}

// TestOwnShardsScopedRecover: two subset processes share one manifest store;
// restarting one recovers exactly its own shards, leaving the other subset's
// manifests untouched and still refusing foreign names.
func TestOwnShardsScopedRecover(t *testing.T) {
	st := store.NewMem()
	mk := func(own []int) *Cluster {
		c := subsetCluster(t, 4, own, 3, 2, 64)
		if _, err := c.AttachMeta(st.Reopen()); err != nil {
			t.Fatal(err)
		}
		return c
	}
	a := mk([]int{0, 1}) // serves o0, o3 (shard 0)
	b := mk([]int{2, 3}) // serves o1, o2 (shard 2)
	rng := stats.NewRNG(13)
	want := map[string][]byte{}
	for name, c := range map[string]*Cluster{"o0": a, "o3": a, "o1": b, "o2": b} {
		want[name] = objData(rng, 12000)
		if err := c.Put(name, want[name]); err != nil {
			t.Fatalf("put %q: %v", name, err)
		}
	}

	// Process A dies; a replacement opens the same subset over A's devices
	// and the shared store. Only shards 0 and 1 are recovered.
	cfg := DefaultConfig()
	cfg.Shards = 4
	cfg.ChunkOPages = 4
	cfg.OwnShards = []int{0, 1}
	a2, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild A's node set from its original devices.
	for _, d := range clusterDevices(a) {
		a2.AddNode(d)
	}
	if _, err := a2.AttachMeta(st.Reopen()); err != nil {
		t.Fatalf("same-subset reopen: %v", err)
	}
	rep, err := a2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Objects != 2 {
		t.Fatalf("recovered %d objects, want 2 (report %+v)", rep.Objects, rep)
	}
	for _, ss := range rep.Shards {
		if ss.Shard != 0 && ss.Shard != 1 {
			t.Fatalf("recovery report covers foreign shard %d", ss.Shard)
		}
	}
	for _, name := range []string{"o0", "o3"} {
		got, err := a2.Get(name)
		if err != nil || !bytes.Equal(got, want[name]) {
			t.Fatalf("recovered get %q: %v", name, err)
		}
	}
	if _, err := a2.Get("o1"); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("foreign get after recovery: got %v, want ErrNotOwner", err)
	}
	// B was never disturbed.
	for _, name := range []string{"o1", "o2"} {
		got, err := b.Get(name)
		if err != nil || !bytes.Equal(got, want[name]) {
			t.Fatalf("b get %q after a's recovery: %v", name, err)
		}
	}
	if bad := a2.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants after subset recovery: %v", bad)
	}
}

// clusterDevices extracts the MemDevices a test cluster was built over, in
// node order, via the first owned shard's node table.
func clusterDevices(c *Cluster) []blockdev.Device {
	s := c.first()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []blockdev.Device
	for _, n := range s.nodes {
		out = append(out, n.devices...)
	}
	return out
}

// TestOwnShardsConformance: a namespace split across two subset clusters
// behaves exactly like one full cluster — same contents, same counts.
func TestOwnShardsConformance(t *testing.T) {
	full := subsetCluster(t, 4, nil, 3, 2, 128)
	a := subsetCluster(t, 4, []int{0, 1}, 3, 2, 128)
	b := subsetCluster(t, 4, []int{2, 3}, 3, 2, 128)
	route := func(name string) *Cluster {
		if s := ShardOf(name, 4); s < 2 {
			return a
		}
		return b
	}
	rng := stats.NewRNG(99)
	model := map[string][]byte{}
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("c%d", i)
		data := objData(rng, rng.Intn(20000))
		if err := full.Put(name, data); err != nil {
			t.Fatal(err)
		}
		if err := route(name).Put(name, data); err != nil {
			t.Fatal(err)
		}
		model[name] = data
	}
	for name, wantB := range model {
		got, err := route(name).Get(name)
		if err != nil || !bytes.Equal(got, wantB) {
			t.Fatalf("split get %q: %v", name, err)
		}
	}
	if na, nb, nf := len(a.Objects()), len(b.Objects()), len(full.Objects()); na+nb != nf {
		t.Fatalf("split holds %d+%d objects, full %d", na, nb, nf)
	}
	for _, c := range []*Cluster{a, b} {
		if bad := c.CheckInvariants(); len(bad) > 0 {
			t.Fatalf("invariants: %v", bad)
		}
	}
}
