package main

import (
	"encoding/json"
	"fmt"
	"os"

	"salamander/internal/metrics"
	"salamander/internal/perfmodel"
)

// shardSpeedupFloor is the acceptance floor the sharded metadata plane must
// clear: modeled throughput at the top shard count must be at least 2x the
// single-shard (one global lock) anchor. It is an absolute property of the
// current build — ci.sh fails the build if the shard layer stops scaling.
// The points themselves are virtual-time and reproduce byte for byte, so
// ci.sh also compares the -shardbench-out file with BENCH_shard.json exactly.
const shardSpeedupFloor = 2.0

// shardBenchCounts returns the shard counts measured by -shardbench: powers
// of two from 1 up to max, plus max itself.
func shardBenchCounts(max int) []int {
	var counts []int
	for n := 1; n < max; n *= 2 {
		counts = append(counts, n)
	}
	return append(counts, max)
}

// runShardBench measures modeled ops/s from 1 to maxShards metadata shards,
// prints the scaling table, enforces the >=2x speedup floor at the top
// count, and optionally writes the points as JSON.
func runShardBench(maxShards, ops int, outPath string) error {
	pts, err := perfmodel.MeasureShardScaling(shardBenchCounts(maxShards), ops, benchSeed)
	if err != nil {
		return err
	}

	fmt.Printf("== metadata-shard scaling (%d mixed ops, %d modeled workers) ==\n", ops, 16)
	t := metrics.NewTable("shards", "ops/s", "speedup")
	for _, p := range pts {
		t.Row(float64(p.Shards), p.OpsPerSec, p.Speedup)
	}
	t.Render(os.Stdout)

	top := pts[len(pts)-1]
	if top.Shards > 1 && top.Speedup < shardSpeedupFloor {
		return fmt.Errorf("shard scaling floor: %.2fx at %d shards, need >= %.1fx vs shards=1",
			top.Speedup, top.Shards, shardSpeedupFloor)
	}

	if outPath != "" {
		raw, err := json.MarshalIndent(pts, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("shard scaling points written to %s\n", outPath)
	}
	return nil
}
