package difs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"salamander/internal/core"
	"salamander/internal/faultinject"
	"salamander/internal/flash"
	"salamander/internal/rber"
	"salamander/internal/sim"
)

// TestRetryBackoffUnderConcurrentGets reads through the cluster's retry
// backoff from several goroutines at once. With four shards sharing four
// devices, one shard's backoff advances a device clock while another
// shard's read on the same device advances it too; the delay must be taken
// under the device lock (go test -race reports it otherwise).
func TestRetryBackoffUnderConcurrentGets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 4
	cfg.ChunkOPages = 4
	cfg.ReadRetries = 8
	cfg.RetryBackoff = 100 * sim.Microsecond
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var devs []*core.Device
	for i := 0; i < 4; i++ {
		dcfg := core.DefaultConfig()
		dcfg.Flash.Geometry = flash.Geometry{
			Channels:      2,
			BlocksPerChan: 8,
			PagesPerBlock: 8,
			PageSize:      rber.FPageSize,
			SpareSize:     rber.SpareSize,
		}
		dcfg.MSizeOPages = 16
		dcfg.Flash.StoreData = true
		dcfg.MaxReadRetries = 0 // every injected fault escalates to the cluster
		dcfg.Flash.Seed = uint64(i + 1)
		dcfg.Seed = uint64(i+1) * 31
		d, err := core.New(dcfg, sim.NewEngine())
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, d)
		c.AddNode(d)
	}

	objs := map[string][]byte{}
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("obj-%d", i)
		objs[name] = bytes.Repeat([]byte{byte(i + 1)}, 3*4096+i)
		if err := c.Put(name, objs[name]); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range devs {
		fr := faultinject.New(uint64(i + 100))
		d.InjectFaults(fr)
		if err := fr.Arm("flash.read.transient", faultinject.Plan{Prob: 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	clocks := make([]sim.Time, len(devs))
	for i, d := range devs {
		clocks[i] = d.Engine().Now()
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for name, want := range objs {
					got, err := c.Get(name)
					if err != nil {
						t.Errorf("worker %d: get %s: %v", w, name, err)
						return
					}
					if !bytes.Equal(got, want) {
						t.Errorf("worker %d: %s corrupted", w, name)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Stats().RepairRetries == 0 {
		t.Fatal("no read was retried: the backoff path never ran")
	}
	for i, d := range devs {
		if d.Engine().Now() <= clocks[i] {
			t.Errorf("device %d clock did not advance under reads and backoff", i)
		}
	}
}
