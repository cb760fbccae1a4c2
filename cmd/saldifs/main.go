// Command saldifs runs a replicated distributed store over a fleet of
// Salamander devices, churns objects until wear decommissions minidisks,
// and reports the §4.3 recovery-traffic comparison between baseline-style
// whole-device failure handling, ShrinkS, and RegenS.
//
// Usage:
//
//	saldifs [-nodes N] [-objects N] [-rounds N] [-pec F] [-seed S]
//	        [-ec] [-shards N] [-metrics] [-metrics-out FILE] [-trace FILE]
//
// With -metrics, every layer of the stack (flash array, FTL, devices,
// cluster) feeds one shared telemetry registry; the per-layer counter and
// histogram tables are printed after the run and the raw snapshot is
// written as JSON to -metrics-out for cmd/salmon. With -trace, the
// cross-layer event ring (page programs, GC victims, tiredness
// transitions, minidisk retire/regen, repairs) is exported as JSONL.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"salamander/internal/blockdev"
	"salamander/internal/core"
	"salamander/internal/difs"
	"salamander/internal/flash"
	"salamander/internal/metrics"
	"salamander/internal/rber"
	"salamander/internal/sim"
	"salamander/internal/ssd"
	"salamander/internal/stats"
	"salamander/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("saldifs: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// options are one invocation's deployment-independent settings.
type options struct {
	nodes, objects, rounds int
	pec                    float64
	seed                   uint64
	ec                     bool // RS(4+2) for all deployments
	shards                 int  // metadata shards per deployment
}

// run parses args, ages the three deployments and writes the §4.3 table
// (and any telemetry) to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("saldifs", flag.ExitOnError)
	var o options
	fs.IntVar(&o.nodes, "nodes", 4, "cluster nodes (one device each)")
	fs.IntVar(&o.objects, "objects", 10, "working-set objects")
	fs.IntVar(&o.rounds, "rounds", 80, "churn rounds")
	fs.Float64Var(&o.pec, "pec", 8, "nominal PEC limit (small = fast aging)")
	fs.Uint64Var(&o.seed, "seed", 1, "simulation seed")
	fs.BoolVar(&o.ec, "ec", false, "use RS(4+2) erasure coding instead of 3-way replication (needs >= 6 nodes)")
	fs.IntVar(&o.shards, "shards", 16, "metadata shards per cluster (1 = unsharded)")
	var (
		showMetric = fs.Bool("metrics", false, "collect cross-layer telemetry, print per-layer tables, write snapshot JSON")
		metricsOut = fs.String("metrics-out", "metrics.json", "snapshot JSON path for -metrics (read by salmon)")
		tracePath  = fs.String("trace", "", "write the cross-layer event trace as JSONL to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.ec && o.nodes < 6 {
		return errors.New("-ec needs at least 6 nodes")
	}

	var reg *telemetry.Registry
	var tr *telemetry.Tracer
	if *showMetric {
		reg = telemetry.NewRegistry()
	}
	if *tracePath != "" {
		tr = telemetry.NewTracer(telemetry.DefaultTraceCapacity)
		if reg == nil {
			reg = telemetry.NewRegistry()
		}
	}

	t := metrics.NewTable("deployment", "churn rounds", "decommissions", "bricks",
		"regenerations", "recovery ops", "recovery bytes", "recovery reads", "degraded reads", "lost chunks")
	for _, mode := range []string{"baseline", "shrinkS", "regenS"} {
		st, ran, err := age(mode, o, reg, tr)
		if err != nil {
			return err
		}
		t.Row(mode, ran, st.DecommissionEvents, st.BrickEvents, st.RegenerateEvents,
			st.RecoveryOps, st.RecoveryBytes, st.RecoveryReadBytes, st.DegradedReads, st.LostChunks)
	}
	fmt.Fprintln(stdout, "== §4.3 — recovery traffic under wear-driven failures ==")
	t.Render(stdout)
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "baseline loses whole devices at the 2.5% bad-block threshold; Salamander")
	fmt.Fprintln(stdout, "sheds minidisk-sized failure domains, and RegenS re-adds regenerated ones.")

	if *showMetric {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "== telemetry (all deployments pooled) ==")
		telemetry.RenderSnapshot(stdout, reg.Snapshot())
		if err := writeSnapshot(*metricsOut, reg.Snapshot()); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "snapshot JSON written to %s (render with: salmon -snapshot %s)\n", *metricsOut, *metricsOut)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := tr.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%d events retained (%d emitted) written to %s\n",
			len(tr.Events()), tr.Total(), *tracePath)
	}
	return nil
}

// writeSnapshot serializes a registry snapshot as indented JSON.
func writeSnapshot(path string, s telemetry.Snapshot) error {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func flashGeom() flash.Geometry {
	return flash.Geometry{
		Channels:      2,
		BlocksPerChan: 8,
		PagesPerBlock: 8,
		PageSize:      rber.FPageSize,
		SpareSize:     rber.SpareSize,
	}
}

// age ages one cluster configuration and returns its stats and the churn
// rounds it ran. When reg is non-nil the cluster and every device bind their
// counters to it (and emit events to tr), so one registry spans flash, ftl,
// ssd/core, and difs.
func age(mode string, o options, reg *telemetry.Registry, tr *telemetry.Tracer) (difs.Stats, int, error) {
	ccfg := difs.DefaultConfig()
	ccfg.Shards = o.shards
	if o.ec {
		ccfg.ECDataShards = 4
		ccfg.ECParityShards = 2
	}
	cluster, err := difs.NewCluster(ccfg)
	if err != nil {
		return difs.Stats{}, 0, err
	}
	if reg != nil {
		cluster.Instrument(reg, tr)
	}
	for i := 0; i < o.nodes; i++ {
		devSeed := o.seed + uint64(i)*977
		// Stagger endurance slightly across devices, as manufacturing
		// variance does, so failures don't land in lockstep bursts.
		nominal := o.pec * (1 + 0.12*float64(i))
		var dev blockdev.Device
		switch mode {
		case "baseline":
			cfg := ssd.DefaultConfig()
			cfg.Flash.Geometry = flashGeom()
			cfg.Flash.StoreData = false
			cfg.RealECC = false
			cfg.Flash.Reliability.NominalPEC = nominal
			cfg.Flash.Seed = devSeed
			cfg.Seed = devSeed * 13
			d, err := ssd.New(cfg, sim.NewEngine())
			if err != nil {
				return difs.Stats{}, 0, err
			}
			if reg != nil {
				d.Instrument(reg, tr)
			}
			dev = d
		default:
			cfg := core.DefaultConfig()
			cfg.Flash.Geometry = flashGeom()
			cfg.Flash.StoreData = false
			cfg.RealECC = false
			cfg.MSizeOPages = 16
			cfg.MaxLevel = 0
			if mode == "regenS" {
				cfg.MaxLevel = 1
			}
			cfg.Flash.Reliability.NominalPEC = nominal
			cfg.Flash.Seed = devSeed
			cfg.Seed = devSeed * 13
			d, err := core.New(cfg, sim.NewEngine())
			if err != nil {
				return difs.Stats{}, 0, err
			}
			if reg != nil {
				d.Instrument(reg, tr)
			}
			dev = d
		}
		cluster.AddNode(dev)
	}

	rng := stats.NewRNG(o.seed)
	blob := make([]byte, 60000)
	for i := 0; i < o.objects; i++ {
		if err := cluster.Put(fmt.Sprintf("obj-%d", i), blob); err != nil {
			return difs.Stats{}, 0, fmt.Errorf("initial put: %w", err)
		}
	}
	ran := 0
churn:
	for ; ran < o.rounds; ran++ {
		for i := 0; i < o.objects; i++ {
			if total, free := cluster.Capacity(); total < o.objects*6 || free < 4 {
				break churn // fleet approaching exhaustion
			}
			name := fmt.Sprintf("obj-%d", (rng.Intn(o.objects)+i)%o.objects)
			if err := cluster.Delete(name); err != nil {
				if errors.Is(err, difs.ErrNotFound) {
					continue
				}
				return difs.Stats{}, 0, err
			}
			if err := cluster.Put(name, blob); err != nil {
				break churn
			}
			if _, err := cluster.Repair(); err != nil {
				// Partial repair failures (a *difs.RepairError) are
				// aggregated per chunk; the pass still repaired the rest.
				var re *difs.RepairError
				if !errors.As(err, &re) {
					return difs.Stats{}, 0, err
				}
				log.Printf("repair: %v", re)
			}
		}
	}
	return cluster.Stats(), ran, nil
}
