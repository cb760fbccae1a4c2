// Command salperf reproduces the paper's performance analysis (Fig. 3c/3d):
// sequential throughput and random-access latency as a function of the
// fraction of tiredness-1 fPages, both from the closed-form 4/(4-L) model
// and measured on the simulated flash array's virtual clock.
//
// Usage:
//
//	salperf [-points N] [-data MB] [-reads N] [-level L]
//	        [-metrics] [-metrics-out FILE] [-trace FILE]
//	        [-ecc] [-degraded]
//
// With -ecc, salperf instead benchmarks the BCH codec at every tiredness
// level's geometry: encode, clean-read check, and decode payload
// throughput, plus the syndrome stage both table-driven and bit-serial (the
// reference oracle). The run fails if the level-0 syndrome speedup, a ratio
// of two rates measured in the same process, drops below 140x. Adding
// -degraded also measures the tired-flash decode figures: throughput under
// an error-count mix spanning a quarter to the full correction budget, and
// erasure-hinted decode with stuck-column candidates. The MB/s figures are
// wall-clock and host-specific; they are printed, never compared.
//
// With -metrics, the measurement's flash arrays feed one registry (op
// counters, RBER and latency histograms) whose per-layer tables print
// after the sweep and whose snapshot JSON lands in -metrics-out for
// cmd/salmon. With -trace, page programs are exported as JSONL events.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"salamander/internal/metrics"
	"salamander/internal/perfmodel"
	"salamander/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("salperf: ")
	var (
		points     = flag.Int("points", 9, "sweep points between f=0 and f=1")
		dataMB     = flag.Int("data", 16, "dataset size in MB")
		reads      = flag.Int("reads", 1000, "random reads per point")
		level      = flag.Int("level", 1, "tired level to mix in (1..3)")
		channels   = flag.Int("channels", 1, "bus channels (>1 overlaps an access's page reads, §4.2)")
		showMetric = flag.Bool("metrics", false, "collect flash telemetry, print per-layer tables, write snapshot JSON")
		metricsOut = flag.String("metrics-out", "metrics.json", "snapshot JSON path for -metrics (read by salmon)")
		tracePath  = flag.String("trace", "", "write the page-program event trace as JSONL to this file")
		eccBench   = flag.Bool("ecc", false, "run the per-level BCH codec benchmark (encode/check/decode/syndrome MB/s)")
		eccDegrade = flag.Bool("degraded", false, "with -ecc: also bench decode under the elevated-RBER error mix and erasure-hinted decode")
	)
	flag.Parse()

	if *eccBench {
		if err := runECCBench(*eccDegrade); err != nil {
			log.Fatal(err)
		}
		return
	}

	cfg := perfmodel.DefaultConfig()
	cfg.DataMB = *dataMB
	cfg.RandomReads = *reads
	cfg.Level = *level
	cfg.Channels = *channels
	if *showMetric {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	if *tracePath != "" {
		cfg.Tracer = telemetry.NewTracer(telemetry.DefaultTraceCapacity)
		if cfg.Telemetry == nil {
			cfg.Telemetry = telemetry.NewRegistry()
		}
	}

	fs := make([]float64, *points)
	for i := range fs {
		fs[i] = float64(i) / float64(*points-1)
	}
	results, err := perfmodel.Sweep(cfg, fs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("== Fig. 3c/3d — degradation vs fraction of L%d fPages ==\n", *level)
	t := metrics.NewTable(
		"fraction",
		"seq-tput (measured)", "seq-tput (model)",
		"16K-latency (measured)", "16K-latency (amortized model)",
		"4K-latency (measured)", "4K-latency (model)",
	)
	for i, r := range results {
		t.Row(
			r.Fraction,
			r.SeqThroughputRel, perfmodel.AnalyticSeqThroughput(fs[i], *level),
			r.Rand16KLatencyRel, perfmodel.AnalyticLargeAccessLatency(fs[i], *level),
			r.Rand4KLatencyRel, perfmodel.AnalyticSmallAccessLatency(fs[i], *level),
		)
	}
	t.Render(os.Stdout)
	fmt.Println()
	fmt.Printf("paper anchor: all-L%d degrades sequential access by 4/(4-L) = %.3fx (%.0f%% reduction)\n",
		*level, perfmodel.DegradationFactor(*level), (1-1/perfmodel.DegradationFactor(*level))*100)
	fmt.Println("note: measured single 16K random reads on a serial device pay whole-page")
	fmt.Println("reads and exceed the amortized model at high f; see EXPERIMENTS.md.")

	if *showMetric {
		fmt.Println()
		fmt.Println("== telemetry (all sweep points pooled) ==")
		telemetry.RenderSnapshot(os.Stdout, cfg.Telemetry.Snapshot())
		raw, err := json.MarshalIndent(cfg.Telemetry.Snapshot(), "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*metricsOut, append(raw, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("snapshot JSON written to %s (render with: salmon -snapshot %s)\n", *metricsOut, *metricsOut)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := cfg.Tracer.WriteJSONL(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d events retained (%d emitted) written to %s\n",
			len(cfg.Tracer.Events()), cfg.Tracer.Total(), *tracePath)
	}
}
