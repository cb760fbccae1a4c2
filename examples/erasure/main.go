// Erasure: the same Salamander minidisk failure domains under Reed-Solomon
// RS(4+2) erasure coding instead of replication — 1.5x storage overhead
// instead of 3x, surviving any two lost shards per stripe, at the cost of
// k-fold read amplification when rebuilding (the §4.3 trade-off between
// redundancy mechanisms).
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"

	"salamander/internal/core"
	"salamander/internal/difs"
	"salamander/internal/flash"
	"salamander/internal/rber"
	"salamander/internal/sim"
	"salamander/internal/stats"
)

func main() {
	log.SetFlags(0)

	cfg := difs.DefaultConfig()
	cfg.ECDataShards = 4
	cfg.ECParityShards = 2
	cluster, err := difs.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// RS(4+2) needs at least 6 nodes; run 7 for placement slack.
	for i := 0; i < 7; i++ {
		dcfg := core.DefaultConfig()
		dcfg.Flash.Geometry = flash.Geometry{
			Channels:      2,
			BlocksPerChan: 8,
			PagesPerBlock: 8,
			PageSize:      rber.FPageSize,
			SpareSize:     rber.SpareSize,
		}
		dcfg.MSizeOPages = 16
		dcfg.RealECC = true
		dcfg.Flash.Reliability.NominalPEC = 6 + float64(i)
		dcfg.Flash.Seed = uint64(i + 1)
		dcfg.Seed = uint64(i+1) * 37
		dev, err := core.New(dcfg, sim.NewEngine())
		if err != nil {
			log.Fatal(err)
		}
		cluster.AddNode(dev)
	}

	rng := stats.NewRNG(5)
	// The churn loop walks names, not the content map: map order would hand
	// the RNG draws and the put/delete order to different names each run.
	names := make([]string, 8)
	content := map[string][]byte{}
	for i := range names {
		name := fmt.Sprintf("dataset-%d", i)
		names[i] = name
		b := make([]byte, 150000+rng.Intn(100000))
		for j := range b {
			b[j] = byte(rng.Uint64())
		}
		content[name] = b
		if err := cluster.Put(name, b); err != nil {
			log.Fatal(err)
		}
	}
	total, free := cluster.Capacity()
	fmt.Printf("stored %d objects as RS(4+2) stripes (%d of %d chunk slots used)\n",
		len(content), total-free, total)

	// Churn until wear decommissions minidisks underneath the stripes.
	for round := 0; round < 40 && cluster.Stats().DecommissionEvents < 4; round++ {
		for _, name := range names {
			if err := cluster.Delete(name); err != nil {
				log.Fatal(err)
			}
			b := make([]byte, 150000+rng.Intn(100000))
			for j := range b {
				b[j] = byte(rng.Uint64())
			}
			content[name] = b
			if err := cluster.Put(name, b); err != nil {
				log.Fatal(err)
			}
			if _, err := cluster.Repair(); err != nil {
				// Partial repair failures (a *difs.RepairError) are
				// aggregated per chunk; the pass still repaired the rest.
				var re *difs.RepairError
				if !errors.As(err, &re) {
					log.Fatal(err)
				}
				log.Printf("repair: %v", re)
			}
		}
	}
	st := cluster.Stats()
	fmt.Printf("wear decommissioned %d minidisks; %d shards rebuilt\n",
		st.DecommissionEvents, st.RecoveryOps)
	if st.RecoveryBytes > 0 {
		fmt.Printf("rebuild read amplification: %.1fx (read %d KB to rewrite %d KB)\n",
			float64(st.RecoveryReadBytes)/float64(st.RecoveryBytes),
			st.RecoveryReadBytes/1024, st.RecoveryBytes/1024)
	}

	bad := cluster.VerifyAll(func(name string, data []byte) error {
		if !bytes.Equal(data, content[name]) {
			return errors.New("mismatch")
		}
		return nil
	})
	if bad != nil {
		log.Fatalf("DATA LOSS: %v", bad)
	}
	fmt.Printf("all %d objects verified bit-for-bit (lost chunks: %d)\n",
		len(content), st.LostChunks)
}
