package main

import (
	"encoding/json"
	"fmt"
	"os"

	"salamander/internal/metrics"
	"salamander/internal/perfmodel"
)

// benchSeed keeps the checked-in BENCH_parallel.json reproducible byte for
// byte across runs.
const benchSeed = 9

// benchChannelCounts returns the 1..max channel counts measured by
// -parallel: powers of two plus max itself, so the table always shows the
// serial anchor and the requested top end.
func benchChannelCounts(max int) []int {
	var counts []int
	for n := 1; n < max; n *= 2 {
		counts = append(counts, n)
	}
	return append(counts, max)
}

// runParallelBench measures write throughput from 1 to maxChannels channels,
// prints the scaling table, and optionally writes the points as JSON.
func runParallelBench(maxChannels, dataMB int, outPath string) error {
	pts, err := perfmodel.MeasureWriteScaling(benchChannelCounts(maxChannels), dataMB, benchSeed)
	if err != nil {
		return err
	}

	fmt.Printf("== channel-parallel write scaling (%d MB dataset) ==\n", dataMB)
	t := metrics.NewTable("channels", "MB/s", "speedup")
	for _, p := range pts {
		t.Row(float64(p.Channels), p.MBPerSec, p.Speedup)
	}
	t.Render(os.Stdout)

	if outPath != "" {
		raw, err := json.MarshalIndent(pts, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("scaling points written to %s\n", outPath)
	}
	return nil
}
