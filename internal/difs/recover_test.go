package difs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"salamander/internal/blockdev"
	"salamander/internal/stats"
	"salamander/internal/store"
)

// metaCluster is memCluster plus an attached manifest store.
func metaCluster(t *testing.T, cfg Config, n, disks, lbas int) (*Cluster, []*blockdev.MemDevice, *store.Mem) {
	t.Helper()
	c, devs := memCluster(t, cfg, n, disks, lbas)
	st := store.NewMem()
	if _, err := c.AttachMeta(st); err != nil {
		t.Fatal(err)
	}
	return c, devs, st
}

// restartCluster simulates a process restart: cluster memory is lost, the
// devices (whose own durability blockdev/core tests cover) and the manifest
// store survive. Nodes re-register in the original order.
func restartCluster(t *testing.T, cfg Config, devs []*blockdev.MemDevice, st *store.Mem) (*Cluster, *RecoveryReport) {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devs {
		c.AddNode(d)
	}
	if _, err := c.AttachMeta(st.Reopen()); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return c, rep
}

func TestRecoverRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	c1, devs, st := metaCluster(t, cfg, 4, 4, 64)
	rng := stats.NewRNG(21)
	want := map[string][]byte{}
	for i, size := range []int{1, 100, blockdev.OPageSize, 3 * blockdev.OPageSize, 150000} {
		name := fmt.Sprintf("o%d", i)
		want[name] = objData(rng, size)
		if err := c1.Put(name, want[name]); err != nil {
			t.Fatal(err)
		}
	}
	// Exercise every manifest-mutating verb, not just Put.
	want["o1"] = objData(rng, 7000)
	if err := c1.ReplaceCtx(context.Background(), "o1", want["o1"]); err != nil {
		t.Fatal(err)
	}
	if err := c1.Delete("o4"); err != nil {
		t.Fatal(err)
	}
	delete(want, "o4")

	c2, rep := restartCluster(t, cfg, devs, st)
	if rep.Objects != len(want) {
		t.Fatalf("recovered %d objects, want %d (report %+v)", rep.Objects, len(want), rep)
	}
	if rep.QuarantinedReplicas != 0 || rep.TornChunks != 0 || rep.BadManifests != 0 || len(rep.LostObjects) != 0 {
		t.Fatalf("clean restart reported damage: %+v", rep)
	}
	if rep.VerifiedReplicas == 0 || rep.RepairsQueued != 0 {
		t.Fatalf("verified=%d repairs=%d on clean restart", rep.VerifiedReplicas, rep.RepairsQueued)
	}
	for name, w := range want {
		got, err := c2.Get(name)
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("post-recovery get %q: err=%v, %d vs %d bytes", name, err, len(got), len(w))
		}
	}
	if _, err := c2.Get("o4"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted object resurrected: %v", err)
	}
	if bad := c2.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants after recovery: %v", bad)
	}
	if c2.Stats().RecoverObjects != int64(len(want)) {
		t.Errorf("recover_objects stat = %d", c2.Stats().RecoverObjects)
	}
	// Normal service continues on the recovered view.
	if err := c2.Put("post", objData(rng, 5000)); err != nil {
		t.Fatalf("put after recovery: %v", err)
	}
}

// TestRepairPersistsNewReplicas: the replicas a repair pass adds must reach
// the manifest store — after a restart the cluster is fully replicated with
// nothing left to repair.
func TestRepairPersistsNewReplicas(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChunkOPages = 4
	c1, devs, st := metaCluster(t, cfg, 6, 4, 64)
	objs := fillCluster(t, c1, 42, 20)
	if err := devs[0].FailMinidisk(0); err != nil {
		t.Fatal(err)
	}
	// Traffic between the failure and the repair settles the loss and
	// flushes the shrunken replica lists, so the repair pass starts from
	// clean manifests and must dirty what it changes itself.
	for name := range objs {
		if _, err := c1.Get(name); err != nil {
			t.Fatal(err)
		}
	}
	if copies := repairUntilQuiet(t, c1, c1.Repair); copies == 0 {
		t.Fatal("the failed minidisk held no chunk; nothing was repaired")
	}

	c2, rep := restartCluster(t, cfg, devs, st)
	if rep.QuarantinedReplicas != 0 || rep.RepairsQueued != 0 || c2.PendingRepairs() != 0 {
		t.Fatalf("restart after a repair left work behind: %+v, pending %d", rep, c2.PendingRepairs())
	}
	if copies, err := c2.Repair(); err != nil || copies != 0 || c2.Stats().RecoveryBytes != 0 {
		t.Fatalf("post-restart repair copied %d chunks (%d bytes), err %v; want nothing to do",
			copies, c2.Stats().RecoveryBytes, err)
	}
	if bad := c2.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants after recovery: %v", bad)
	}
	for name, want := range objs {
		if got, err := c2.Get(name); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("post-recovery get %q: err=%v", name, err)
		}
	}
}

func TestRecoverTornReplicaQuarantinedAndRepaired(t *testing.T) {
	cfg := DefaultConfig() // R=3
	c1, devs, st := metaCluster(t, cfg, 4, 4, 64)
	data := objData(stats.NewRNG(22), 2*c1.chunkBytes())
	if err := c1.Put("a", data); err != nil {
		t.Fatal(err)
	}
	// A kill -9 mid-write leaves a replica whose pages don't match the
	// committed manifest. Simulate by scribbling on one replica's first page.
	victim := objOf(c1, "a").chunks[0].replicas[0]
	node, md, slot := victim.tgt.key.node, victim.tgt.key.md, victim.slot
	garbage := bytes.Repeat([]byte{0xAB}, blockdev.OPageSize)
	if err := devs[node].Write(md, slot*cfg.ChunkOPages, garbage); err != nil {
		t.Fatal(err)
	}

	c2, rep := restartCluster(t, cfg, devs, st)
	if rep.QuarantinedReplicas != 1 {
		t.Fatalf("quarantined = %d, want 1 (report %+v)", rep.QuarantinedReplicas, rep)
	}
	if rep.RepairsQueued == 0 {
		t.Fatal("torn replica not queued for repair")
	}
	if len(rep.LostObjects) != 0 {
		t.Fatalf("object lost despite 2 intact replicas: %v", rep.LostObjects)
	}
	// Reads are served from intact replicas — never the torn bytes.
	got, err := c2.Get("a")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after torn-replica recovery: err=%v, equal=%v", err, bytes.Equal(got, data))
	}
	// The torn slot was freed and its pages reclaimed.
	buf := make([]byte, blockdev.OPageSize)
	if err := devs[node].Read(md, slot*cfg.ChunkOPages, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, blockdev.OPageSize)) {
		t.Error("torn replica's pages not reclaimed")
	}
	if _, err := c2.Repair(); err != nil {
		t.Fatal(err)
	}
	for _, ch := range objOf(c2, "a").chunks {
		if len(ch.replicas) != cfg.ReplicationFactor {
			t.Fatalf("chunk has %d replicas after repair", len(ch.replicas))
		}
	}
	if bad := c2.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants: %v", bad)
	}
}

func TestRecoverAllReplicasTornReportsLost(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReplicationFactor = 2
	c1, devs, st := metaCluster(t, cfg, 3, 2, 64)
	if err := c1.Put("doomed", objData(stats.NewRNG(23), 1000)); err != nil {
		t.Fatal(err)
	}
	garbage := bytes.Repeat([]byte{0xCD}, blockdev.OPageSize)
	for _, r := range objOf(c1, "doomed").chunks[0].replicas {
		if err := devs[r.tgt.key.node].Write(r.tgt.key.md, r.slot*cfg.ChunkOPages, garbage); err != nil {
			t.Fatal(err)
		}
	}

	c2, rep := restartCluster(t, cfg, devs, st)
	if rep.TornChunks == 0 || len(rep.LostObjects) != 1 || rep.LostObjects[0] != "doomed" {
		t.Fatalf("report %+v, want doomed lost", rep)
	}
	// The one thing recovery must never do is serve the torn bytes.
	if _, err := c2.Get("doomed"); err == nil {
		t.Fatal("read of fully torn object succeeded")
	}
}

func TestRecoverBadManifestQuarantined(t *testing.T) {
	cfg := DefaultConfig()
	c1, devs, st := metaCluster(t, cfg, 4, 2, 64)
	data := objData(stats.NewRNG(24), 9000)
	if err := c1.Put("good", data); err != nil {
		t.Fatal(err)
	}
	if err := c1.Put("torn", data); err != nil {
		t.Fatal(err)
	}
	// A truncated manifest (torn metadata write on a store without atomic
	// rename) and outright junk must both quarantine, never panic.
	raw, err := manifests(c1, "torn").Get(objKey("torn"))
	if err != nil {
		t.Fatal(err)
	}
	if err := manifests(c1, "torn").Put(objKey("torn"), raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
	if err := manifests(c1, "junk").Put(objKey("junk"), []byte("not json at all")); err != nil {
		t.Fatal(err)
	}

	c2, rep := restartCluster(t, cfg, devs, st)
	if rep.BadManifests != 2 {
		t.Fatalf("bad manifests = %d, want 2 (report %+v)", rep.BadManifests, rep)
	}
	if rep.Objects != 1 {
		t.Fatalf("recovered %d objects, want 1", rep.Objects)
	}
	got, err := c2.Get("good")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("intact object lost alongside bad manifests: %v", err)
	}
	if _, err := c2.Get("torn"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("truncated-manifest object served: %v", err)
	}
	// The untrusted bytes are preserved for the operator, not destroyed.
	quar := listMeta(t, c2, quarPrefix)
	if len(quar) != 2 {
		t.Fatalf("quarantine keys = %v", quar)
	}
	live := listMeta(t, c2, objPrefix)
	for _, k := range live {
		if strings.HasSuffix(k, "/torn") || strings.HasSuffix(k, "/junk") {
			t.Fatalf("bad manifest %q still live", k)
		}
	}
}

func TestRecoverOldLayoutQuarantined(t *testing.T) {
	// A store stamped with an older manifest format is never reinterpreted:
	// AttachMeta moves its records aside and starts fresh.
	st := store.NewMem()
	if err := st.Put(metaFormatKey, []byte("difs-meta-v0")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(objKey("legacy"), []byte(`{"name":"legacy","old":"shape"}`)); err != nil {
		t.Fatal(err)
	}
	c, _ := memCluster(t, DefaultConfig(), 3, 2, 64)
	n, err := c.AttachMeta(st)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("quarantined = %d, want 1", n)
	}
	rep, err := c.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Objects != 0 || rep.BadManifests != 0 {
		t.Fatalf("report %+v after old-layout attach", rep)
	}
	quar, err := st.List(quarPrefix + "difs-meta-v0/")
	if err != nil || len(quar) != 1 {
		t.Fatalf("old-layout records not preserved: %v %v", quar, err)
	}
	if len(c.shards) == 1 {
		if raw, err := st.Get(metaFormatKey); err != nil || string(raw) != metaFormatV1 {
			t.Fatalf("format not restamped: %q %v", raw, err)
		}
	} else {
		// Sharded clusters mark the root with the shard count instead of the
		// v1 stamp (a v1 stamp always means an unsharded namespace).
		if raw, err := st.Get(metaShardsKey); err != nil || string(raw) != fmt.Sprint(len(c.shards)) {
			t.Fatalf("shard stamp missing after old-layout attach: %q %v", raw, err)
		}
	}
}

func TestRecoverECRoundTripAndShardRepair(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ECDataShards = 4
	cfg.ECParityShards = 2
	c1, devs, st := metaCluster(t, cfg, 7, 4, 64)
	data := objData(stats.NewRNG(25), c1.chunkBytes()*9+17)
	if err := c1.Put("ec", data); err != nil {
		t.Fatal(err)
	}
	// Tear one shard's single replica: recovery must quarantine it and the
	// stripe must still reconstruct.
	victim := objOf(c1, "ec").stripes[0].chunks[1].replicas[0]
	garbage := bytes.Repeat([]byte{0xEF}, blockdev.OPageSize)
	if err := devs[victim.tgt.key.node].Write(victim.tgt.key.md, victim.slot*cfg.ChunkOPages, garbage); err != nil {
		t.Fatal(err)
	}

	c2, rep := restartCluster(t, cfg, devs, st)
	if rep.QuarantinedReplicas != 1 || rep.TornChunks != 1 {
		t.Fatalf("report %+v, want 1 quarantined / 1 torn shard", rep)
	}
	if len(rep.LostObjects) != 0 {
		t.Fatalf("EC object lost with k survivors: %v", rep.LostObjects)
	}
	got, err := c2.Get("ec")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("EC get after recovery: err=%v equal=%v", err, bytes.Equal(got, data))
	}
	if _, err := c2.Repair(); err != nil {
		t.Fatal(err)
	}
	if c2.PendingRepairs() != 0 {
		t.Fatalf("pending repairs = %d after EC repair", c2.PendingRepairs())
	}
	for _, stp := range objOf(c2, "ec").stripes {
		for _, ch := range stp.chunks {
			if len(ch.replicas) != 1 {
				t.Fatalf("shard %d has %d replicas after repair", ch.shardIdx, len(ch.replicas))
			}
		}
	}
	if bad := c2.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants: %v", bad)
	}
}

func TestRecoverECShapeChangeQuarantines(t *testing.T) {
	// Manifests written under RS(4+2) must not be reinterpreted by a
	// replicated (or differently shaped) cluster.
	cfg := DefaultConfig()
	cfg.ECDataShards = 4
	cfg.ECParityShards = 2
	c1, devs, st := metaCluster(t, cfg, 7, 4, 64)
	if err := c1.Put("ec", objData(stats.NewRNG(26), 10000)); err != nil {
		t.Fatal(err)
	}
	plain := DefaultConfig()
	c2, rep := restartCluster(t, plain, devs, st)
	if rep.Objects != 0 || rep.BadManifests != 1 {
		t.Fatalf("report %+v, want the EC manifest quarantined", rep)
	}
	if _, err := c2.Get("ec"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("shape-mismatched object served: %v", err)
	}
}

func TestRecoverPreconditions(t *testing.T) {
	c, _ := memCluster(t, DefaultConfig(), 3, 2, 64)
	if _, err := c.Recover(); err == nil {
		t.Fatal("Recover without AttachMeta accepted")
	}
	st := store.NewMem()
	if _, err := c.AttachMeta(st); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(); err == nil {
		t.Fatal("Recover on non-empty namespace accepted")
	}
}

// TestRecoverOrphanReclaim: chunk data placed but never committed to a
// manifest (the crash window of an un-acked Put) is trimmed at recovery.
func TestRecoverOrphanReclaim(t *testing.T) {
	cfg := DefaultConfig()
	_, devs, st := metaCluster(t, cfg, 3, 1, 64)
	// Write straight to a device page difs never committed — the residue of
	// a Put that died between writeChunk and its manifest flush.
	orphan := bytes.Repeat([]byte{0x77}, blockdev.OPageSize)
	if err := devs[0].Write(0, 0, orphan); err != nil {
		t.Fatal(err)
	}
	_, rep := restartCluster(t, cfg, devs, st)
	if rep.Objects != 0 {
		t.Fatalf("report %+v", rep)
	}
	buf := make([]byte, blockdev.OPageSize)
	if err := devs[0].Read(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, blockdev.OPageSize)) {
		t.Error("orphan page survived recovery")
	}
}

// TestRecoverOnFileStoreEndToEnd runs the whole durable stack the way
// salsrv wires it — FileStore-backed durable devices plus a FileStore
// manifest namespace — through a simulated crash (handles dropped without
// Close) and reopen. A half-renamed manifest temp file is planted in the
// meta store's staging dir to stand in for a kill mid-commit; the sweep
// must discard it without disturbing the committed namespace.
func TestRecoverOnFileStoreEndToEnd(t *testing.T) {
	dir := t.TempDir()
	const nodes, disks, lbas = 3, 2, 64
	cfg := DefaultConfig()

	openFleet := func() (*Cluster, []*blockdev.DurableDevice) {
		t.Helper()
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var devs []*blockdev.DurableDevice
		for i := 0; i < nodes; i++ {
			st, err := store.OpenFile(filepath.Join(dir, fmt.Sprintf("node%d", i)), store.FileOptions{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			d, err := blockdev.OpenDurable(st)
			if err != nil {
				t.Fatal(err)
			}
			if len(d.Minidisks()) == 0 {
				for k := 0; k < disks; k++ {
					if _, err := d.AddMinidisk(lbas, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			devs = append(devs, d)
			c.AddNode(d)
		}
		return c, devs
	}
	openMeta := func(c *Cluster) store.Store {
		t.Helper()
		st, err := store.OpenFile(filepath.Join(dir, "cluster"), store.FileOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.AttachMeta(st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	c1, _ := openFleet()
	openMeta(c1)
	rng := stats.NewRNG(97)
	want := map[string][]byte{}
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("f%d", i)
		want[name] = objData(rng, 1000+i*4000)
		if err := c1.Put(name, want[name]); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Close, no Sync. The FileStore writes eagerly, so committed
	// state is already on disk; in-memory cluster state just evaporates.

	// Plant the residue of a manifest commit that died between temp-write
	// and rename.
	torn := filepath.Join(dir, "cluster", "tmp", "31337.9.tmp")
	if err := os.WriteFile(torn, []byte(`{"name":"ghost"`), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, _ := openFleet()
	openMeta(c2)
	rep, err := c2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Objects != len(want) || rep.BadManifests != 0 || rep.QuarantinedReplicas != 0 || len(rep.LostObjects) != 0 {
		t.Fatalf("report %+v", rep)
	}
	if _, err := os.Stat(torn); !errors.Is(err, os.ErrNotExist) {
		t.Error("half-renamed manifest temp survived reopen")
	}
	for name, w := range want {
		got, err := c2.Get(name)
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("get %q after file-backed recovery: err=%v, %d vs %d bytes", name, err, len(got), len(w))
		}
	}
	if _, err := c2.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost manifest materialized: %v", err)
	}
	if bad := c2.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants: %v", bad)
	}
}

// mutationCounter counts the Put and Delete calls that reach a store.
type mutationCounter struct {
	store.Store
	puts, deletes int
}

func (m *mutationCounter) Put(key string, data []byte) error {
	m.puts++
	return m.Store.Put(key, data)
}

func (m *mutationCounter) Delete(key string) error {
	m.deletes++
	return m.Store.Delete(key)
}

// TestFailedPlacementLeavesStoreUntouched: a Put or Replace that runs out of
// space after placing some chunks rolls them back — and since those chunks
// never appeared in a manifest, the rollback must not touch the manifest
// store: no rewrite of the object still stored under the name, no delete of
// a manifest that never existed.
func TestFailedPlacementLeavesStoreUntouched(t *testing.T) {
	cfg := DefaultConfig() // 16-oPage chunks: 4 slots per 64-LBA disk, R=3
	c, _ := memCluster(t, cfg, 3, 1, 64)
	st := &mutationCounter{Store: store.NewMem()}
	if _, err := c.AttachMeta(st); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(71)
	old := objData(rng, 2*c.chunkBytes())
	if err := c.Put("a", old); err != nil {
		t.Fatal(err)
	}
	// Two free slots per disk remain: a three-chunk object places two chunks
	// and fails on the third.
	big := objData(rng, 3*c.chunkBytes())
	st.puts, st.deletes = 0, 0
	if err := c.ReplaceCtx(context.Background(), "a", big); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversized replace: %v, want ErrNoSpace", err)
	}
	if err := c.Put("b", big); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversized put: %v, want ErrNoSpace", err)
	}
	if st.puts != 0 || st.deletes != 0 {
		t.Errorf("failed placements made %d store puts and %d deletes, want none", st.puts, st.deletes)
	}
	if got, err := c.Get("a"); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("object damaged by a failed replace: %v", err)
	}
	if _, free := c.Capacity(); free != 6 {
		t.Errorf("%d free slots after rollback, want 6", free)
	}
	if bad := c.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants: %v", bad)
	}
}
