package difs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"salamander/internal/blockdev"
	"salamander/internal/stats"
)

// ecCluster builds an RS(4+2) cluster over n MemDevice nodes.
func ecCluster(t *testing.T, n int) (*Cluster, []*blockdev.MemDevice) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ECDataShards = 4
	cfg.ECParityShards = 2
	return memCluster(t, cfg, n, 4, 64)
}

func TestECValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ECDataShards = 0
	cfg.ECParityShards = 2
	if _, err := NewCluster(cfg); err == nil {
		t.Error("parity without data shards accepted")
	}
	cfg.ECDataShards = 200
	if _, err := NewCluster(cfg); err == nil {
		t.Error("oversized shard count accepted")
	}
}

func TestECPutGetRoundTrip(t *testing.T) {
	c, _ := ecCluster(t, 7)
	rng := stats.NewRNG(1)
	for i, size := range []int{1, 1000, c.chunkBytes() * 4, c.chunkBytes()*9 + 17} {
		name := fmt.Sprintf("o%d", i)
		data := objData(rng, size)
		if err := c.Put(name, data); err != nil {
			t.Fatalf("put %s (%d bytes): %v", name, size, err)
		}
		got, err := c.Get(name)
		if err != nil {
			t.Fatalf("get %s: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s corrupted (%d vs %d bytes)", name, len(got), len(data))
		}
	}
}

func TestECShardsOnDistinctNodes(t *testing.T) {
	c, _ := ecCluster(t, 7)
	if err := c.Put("obj", objData(stats.NewRNG(2), 1000)); err != nil {
		t.Fatal(err)
	}
	for _, st := range objOf(c, "obj").stripes {
		if len(st.chunks) != 6 {
			t.Fatalf("stripe has %d shards", len(st.chunks))
		}
		seen := map[NodeID]bool{}
		for _, ch := range st.chunks {
			if len(ch.replicas) != 1 {
				t.Fatalf("shard has %d replicas, want 1", len(ch.replicas))
			}
			n := ch.replicas[0].tgt.key.node
			if seen[n] {
				t.Fatal("two shards of one stripe on the same node")
			}
			seen[n] = true
		}
	}
}

func TestECNeedsEnoughNodes(t *testing.T) {
	c, _ := ecCluster(t, 4) // fewer than k+m=6 nodes
	err := c.Put("obj", objData(stats.NewRNG(3), 1000))
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("EC put on 4 nodes: %v", err)
	}
	// Failed put leaves no orphaned capacity.
	total, free := c.Capacity()
	if free != total {
		t.Fatalf("orphaned slots after failed put: %d/%d", free, total)
	}
	if _, err := c.Get("obj"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("half-written object visible: %v", err)
	}
}

func TestECSurvivesUpToMFailures(t *testing.T) {
	c, devs := ecCluster(t, 7)
	rng := stats.NewRNG(4)
	want := map[string][]byte{}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("o%d", i)
		want[name] = objData(rng, 40000)
		if err := c.Put(name, want[name]); err != nil {
			t.Fatal(err)
		}
	}
	// Kill two minidisks on different nodes (<= m = 2 shard losses per
	// stripe in the worst case).
	if err := devs[0].FailMinidisk(0); err != nil {
		t.Fatal(err)
	}
	if err := devs[1].FailMinidisk(0); err != nil {
		t.Fatal(err)
	}
	// Degraded reads reconstruct on the fly.
	for name, w := range want {
		got, err := c.Get(name)
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("degraded get %s: %v", name, err)
		}
	}
	// Repair rebuilds the lost shards with read amplification.
	st0 := c.Stats()
	if _, err := c.Repair(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.LostChunks != 0 {
		t.Fatalf("lost chunks = %d", st.LostChunks)
	}
	rebuilt := st.RecoveryOps - st0.RecoveryOps
	if rebuilt == 0 {
		t.Fatal("repair rebuilt nothing")
	}
	// EC rebuild reads k shards per rebuilt shard: read amplification ~ k.
	readAmp := float64(st.RecoveryReadBytes-st0.RecoveryReadBytes) /
		float64(st.RecoveryBytes-st0.RecoveryBytes)
	if readAmp < 3.5 {
		t.Errorf("EC repair read amplification %.2f, want ~k=4", readAmp)
	}
	// All shards whole again: another failure round is survivable.
	eachObject(c, func(obj *object) {
		for _, stp := range obj.stripes {
			for _, ch := range stp.chunks {
				if len(ch.replicas) != 1 {
					t.Fatalf("shard not rebuilt: %d replicas", len(ch.replicas))
				}
			}
		}
	})
	if bad := c.VerifyAll(func(name string, data []byte) error {
		if !bytes.Equal(data, want[name]) {
			return errors.New("mismatch")
		}
		return nil
	}); bad != nil {
		t.Fatalf("post-repair verify failed: %v", bad)
	}
}

func TestECLosesDataBeyondM(t *testing.T) {
	c, devs := ecCluster(t, 7)
	if err := c.Put("doomed", objData(stats.NewRNG(5), 40000)); err != nil {
		t.Fatal(err)
	}
	// Brick enough devices to exceed m=2 shard losses without repair: the
	// 6 shards sit on 6 distinct nodes of 7, so bricking 4 nodes kills at
	// least 3 shards of the stripe.
	for i := 0; i < 4; i++ {
		devs[i].Brick()
	}
	if _, err := c.Get("doomed"); err == nil {
		t.Fatal("read succeeded with 4 of 7 nodes gone and m=2")
	}
	_, err := c.Repair()
	var re *RepairError
	if !errors.As(err, &re) {
		t.Fatalf("repair err = %v, want *RepairError", err)
	}
	if len(re.Lost) == 0 {
		t.Errorf("repair error = %+v, want lost chunks", re)
	}
	if c.Stats().LostChunks == 0 {
		t.Error("beyond-m loss not recorded")
	}
}

func TestECDeleteFreesEverything(t *testing.T) {
	c, _ := ecCluster(t, 7)
	if err := c.Put("a", objData(stats.NewRNG(6), 50000)); err != nil {
		t.Fatal(err)
	}
	_, freeBefore := c.Capacity()
	if err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}
	total, free := c.Capacity()
	if free != total {
		t.Fatalf("delete leaked slots: %d/%d (was %d)", free, total, freeBefore)
	}
}

// TestECRecoveryAmplificationVsReplication quantifies the §4.3 difference
// between redundancy mechanisms: repairing one lost chunk reads 1 chunk
// under replication but k chunks under RS(k+m).
func TestECRecoveryAmplificationVsReplication(t *testing.T) {
	run := func(ecMode bool) (readBytes, writeBytes int64) {
		cfg := DefaultConfig()
		if ecMode {
			cfg.ECDataShards = 4
			cfg.ECParityShards = 2
		}
		c, devs := memCluster(t, cfg, 7, 4, 64)
		rng := stats.NewRNG(7)
		for i := 0; i < 5; i++ {
			if err := c.Put(fmt.Sprintf("o%d", i), objData(rng, 60000)); err != nil {
				t.Fatal(err)
			}
		}
		if err := devs[0].FailMinidisk(0); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Repair(); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		return st.RecoveryReadBytes, st.RecoveryBytes
	}
	rRead, rWrite := run(false)
	eRead, eWrite := run(true)
	if rWrite == 0 || eWrite == 0 {
		t.Skip("failure missed the stored chunks")
	}
	rAmp := float64(rRead) / float64(rWrite)
	eAmp := float64(eRead) / float64(eWrite)
	t.Logf("repair read/write amplification: replication %.2f, RS(4+2) %.2f", rAmp, eAmp)
	if eAmp < rAmp*2 {
		t.Errorf("EC amplification %.2f not clearly above replication %.2f", eAmp, rAmp)
	}
}

// TestDecommissionNode: operator-initiated node replacement migrates every
// chunk away with zero loss, then the node holds nothing.
func TestDecommissionNode(t *testing.T) {
	cfg := DefaultConfig()
	c, _ := memCluster(t, cfg, 5, 4, 64)
	rng := stats.NewRNG(8)
	want := map[string][]byte{}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("o%d", i)
		want[name] = objData(rng, 50000)
		if err := c.Put(name, want[name]); err != nil {
			t.Fatal(err)
		}
	}
	drained := decommissionNode(c, 1)
	if drained == 0 {
		t.Fatal("node had no live targets")
	}
	if _, err := c.Repair(); err != nil {
		t.Fatal(err)
	}
	// Nothing lives on node 1 anymore.
	eachTarget(c, func(key targetKey, tgt *target) {
		if key.node == 1 && tgt.state == tLive {
			t.Fatalf("target %v still live after decommission", key)
		}
		if key.node == 1 && len(tgt.chunks) > 0 {
			t.Fatalf("target %v still holds %d chunks", key, len(tgt.chunks))
		}
	})
	eachObject(c, func(obj *object) {
		for _, ch := range obj.chunks {
			if len(ch.replicas) != cfg.ReplicationFactor {
				t.Fatalf("chunk of %q has %d replicas after migration", obj.name, len(ch.replicas))
			}
			for _, r := range ch.replicas {
				if r.tgt.key.node == 1 {
					t.Fatalf("chunk of %q still on node 1", obj.name)
				}
			}
		}
	})
	if bad := c.VerifyAll(func(name string, data []byte) error {
		if !bytes.Equal(data, want[name]) {
			return errors.New("mismatch")
		}
		return nil
	}); bad != nil {
		t.Fatalf("migration corrupted %v", bad)
	}
	if c.Stats().LostChunks != 0 {
		t.Errorf("lost chunks = %d", c.Stats().LostChunks)
	}
}
