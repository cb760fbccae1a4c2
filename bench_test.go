// Benchmark harness: one benchmark per figure and table of the paper's
// evaluation. Each prints the paper-shaped rows once (guarded by sync.Once)
// and reports the headline values as benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the entire evaluation. EXPERIMENTS.md records paper-vs-
// measured for every entry.
package salamander_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"salamander"
	"salamander/internal/blockdev"
	"salamander/internal/carbon"
	"salamander/internal/core"
	"salamander/internal/cost"
	"salamander/internal/difs"
	"salamander/internal/flash"
	"salamander/internal/lifesim"
	"salamander/internal/metrics"
	"salamander/internal/perfmodel"
	"salamander/internal/rber"
	"salamander/internal/sim"
	"salamander/internal/stats"
	"salamander/internal/telemetry"
)

// -------------------------------------------------------------------------
// F2 — Fig. 2: tiredness level (code rate) vs PEC benefit.
// -------------------------------------------------------------------------

var fig2Once sync.Once

func BenchmarkFig2PECBenefit(b *testing.B) {
	var model *rber.Model
	for i := 0; i < b.N; i++ {
		m, err := rber.New(rber.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		model = m
	}
	fig2Once.Do(func() {
		t := metrics.NewTable("level", "code rate", "max RBER", "PEC benefit")
		for _, spec := range model.Levels() {
			t.Row(fmt.Sprintf("L%d", spec.Level), spec.CodeRate, spec.MaxRBER, spec.Benefit)
		}
		fmt.Println("\n== Fig. 2 — PEC benefit per tiredness level ==")
		t.Render(os.Stdout)
	})
	b.ReportMetric(model.Level(1).Benefit, "L1-benefit")
	b.ReportMetric(model.Level(2).Benefit, "L2-benefit")
	b.ReportMetric(model.Level(3).Benefit, "L3-benefit")
}

// -------------------------------------------------------------------------
// F3a/F3b — fleet survivors and capacity over time.
// -------------------------------------------------------------------------

func fleetConfig() lifesim.Config {
	cfg := lifesim.DefaultConfig()
	cfg.Devices = 32
	cfg.BlocksPerDevice = 128
	return cfg
}

var fig3Once sync.Once

func runFleetModes(b *testing.B) map[lifesim.Mode]*lifesim.Result {
	b.Helper()
	out := map[lifesim.Mode]*lifesim.Result{}
	for _, mode := range []lifesim.Mode{lifesim.Baseline, lifesim.ShrinkS, lifesim.RegenS} {
		cfg := fleetConfig()
		cfg.Mode = mode
		r, err := lifesim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		out[mode] = r
	}
	return out
}

func printFleetSeries(results map[lifesim.Mode]*lifesim.Result, title string,
	y func(*lifesim.Result, int) float64) {
	fmt.Println("\n== " + title + " ==")
	var series []*metrics.Series
	for _, mode := range []lifesim.Mode{lifesim.Baseline, lifesim.ShrinkS, lifesim.RegenS} {
		r := results[mode]
		s := &metrics.Series{Name: mode.String()}
		stride := len(r.Days)/20 + 1
		for i := 0; i < len(r.Days); i += stride {
			s.Add(r.Days[i], y(r, i))
		}
		series = append(series, s)
	}
	metrics.RenderSeries(os.Stdout, "day", series...)
}

func BenchmarkFig3aSurvivors(b *testing.B) {
	var results map[lifesim.Mode]*lifesim.Result
	for i := 0; i < b.N; i++ {
		results = runFleetModes(b)
	}
	fig3Once.Do(func() {
		printFleetSeries(results, "Fig. 3a — functioning SSDs over time",
			func(r *lifesim.Result, i int) float64 { return float64(r.Alive[i]) })
		printFleetSeries(results, "Fig. 3b — available capacity over time",
			func(r *lifesim.Result, i int) float64 { return r.CapacityFrac[i] })
	})
	b.ReportMetric(results[lifesim.Baseline].MeanLifetimeDays, "baseline-days")
	b.ReportMetric(results[lifesim.RegenS].MeanLifetimeDays, "regenS-days")
}

func BenchmarkFig3bCapacity(b *testing.B) {
	var results map[lifesim.Mode]*lifesim.Result
	for i := 0; i < b.N; i++ {
		results = runFleetModes(b)
	}
	b.ReportMetric(results[lifesim.ShrinkS].MeanLifetimeCapacity, "shrinkS-lifetime-cap")
	b.ReportMetric(results[lifesim.RegenS].MeanLifetimeCapacity, "regenS-lifetime-cap")
}

// -------------------------------------------------------------------------
// F3c/F3d — performance degradation vs L1-page fraction.
// -------------------------------------------------------------------------

var (
	fig3cOnce    sync.Once
	perfFracs    = []float64{0, 0.25, 0.5, 0.75, 1}
	perfOnceBody = func(results []*perfmodel.Result) {
		t := metrics.NewTable("fraction",
			"seq-tput meas", "seq-tput model",
			"16K-lat meas", "16K-lat amortized",
			"4K-lat meas")
		for i, r := range results {
			t.Row(r.Fraction,
				r.SeqThroughputRel, perfmodel.AnalyticSeqThroughput(perfFracs[i], 1),
				r.Rand16KLatencyRel, perfmodel.AnalyticLargeAccessLatency(perfFracs[i], 1),
				r.Rand4KLatencyRel)
		}
		fmt.Println("\n== Fig. 3c/3d — degradation vs fraction of L1 fPages ==")
		t.Render(os.Stdout)
	}
)

func perfSweep(b *testing.B) []*perfmodel.Result {
	b.Helper()
	cfg := perfmodel.DefaultConfig()
	cfg.DataMB = 8
	cfg.RandomReads = 500
	results, err := perfmodel.Sweep(cfg, perfFracs)
	if err != nil {
		b.Fatal(err)
	}
	return results
}

func BenchmarkFig3cSeqThroughput(b *testing.B) {
	var results []*perfmodel.Result
	for i := 0; i < b.N; i++ {
		results = perfSweep(b)
	}
	fig3cOnce.Do(func() { perfOnceBody(results) })
	last := results[len(results)-1]
	b.ReportMetric(last.SeqThroughputRel, "seq-tput-at-f1")
}

func BenchmarkFig3dRandLatency(b *testing.B) {
	var results []*perfmodel.Result
	for i := 0; i < b.N; i++ {
		results = perfSweep(b)
	}
	last := results[len(results)-1]
	b.ReportMetric(last.Rand16KLatencyRel, "lat16K-at-f1")
	b.ReportMetric(last.Rand4KLatencyRel, "lat4K-at-f1")
}

// -------------------------------------------------------------------------
// F4 — CO2e scenarios (Eq. 3).
// -------------------------------------------------------------------------

var fig4Once sync.Once

func BenchmarkFig4Carbon(b *testing.B) {
	var scenarios []carbon.Scenario
	for i := 0; i < b.N; i++ {
		scenarios = carbon.Fig4()
	}
	fig4Once.Do(func() {
		t := metrics.NewTable("scenario", "Ru", "savings")
		for _, s := range scenarios {
			t.Row(s.Name, s.Params.Ru, s.Savings)
		}
		fmt.Println("\n== Fig. 4 — CO2e reduction ==")
		t.Render(os.Stdout)
	})
	for _, s := range scenarios {
		switch s.Name {
		case "RegenS/current-grid":
			b.ReportMetric(s.Savings*100, "regenS-grid-%")
		case "RegenS/renewables":
			b.ReportMetric(s.Savings*100, "regenS-renew-%")
		}
	}
}

// -------------------------------------------------------------------------
// T-life — headline lifetime extension (>=1.2x ShrinkS, ~1.5x RegenS).
// -------------------------------------------------------------------------

var lifetimeOnce sync.Once

func BenchmarkLifetimeExtension(b *testing.B) {
	var sf, rf float64
	for i := 0; i < b.N; i++ {
		var err error
		sf, err = lifesim.LifetimeFactor(fleetConfig(), lifesim.ShrinkS)
		if err != nil {
			b.Fatal(err)
		}
		rf, err = lifesim.LifetimeFactor(fleetConfig(), lifesim.RegenS)
		if err != nil {
			b.Fatal(err)
		}
	}
	lifetimeOnce.Do(func() {
		fmt.Printf("\n== Lifetime extension ==\nshrinkS %.3fx   regenS %.3fx   (paper: >=1.2x / up to ~1.5x)\n", sf, rf)
	})
	b.ReportMetric(sf, "shrinkS-x")
	b.ReportMetric(rf, "regenS-x")
}

// -------------------------------------------------------------------------
// T-tco — cost model (Eq. 4).
// -------------------------------------------------------------------------

var tcoOnce sync.Once

func BenchmarkTCO(b *testing.B) {
	var rows []cost.Scenario
	for i := 0; i < b.N; i++ {
		rows = cost.Table()
	}
	tcoOnce.Do(func() {
		t := metrics.NewTable("scenario", "CRu", "relative TCO", "savings")
		for _, s := range rows {
			t.Row(s.Name, s.Params.CRu(), s.Params.RelativeTCO(), s.Savings)
		}
		fmt.Println("\n== §4.4 — TCO ==")
		t.Render(os.Stdout)
	})
	b.ReportMetric(rows[0].Savings*100, "shrinkS-%")
	b.ReportMetric(rows[1].Savings*100, "regenS-%")
}

// -------------------------------------------------------------------------
// T-rec — recovery traffic (§4.3): fleet-level failed-capacity volume.
// -------------------------------------------------------------------------

var recoveryOnce sync.Once

func BenchmarkRecoveryTraffic(b *testing.B) {
	var results map[lifesim.Mode]*lifesim.Result
	for i := 0; i < b.N; i++ {
		results = runFleetModes(b)
	}
	recoveryOnce.Do(func() {
		t := metrics.NewTable("mode", "failed capacity over life (x original)")
		for _, m := range []lifesim.Mode{lifesim.Baseline, lifesim.ShrinkS, lifesim.RegenS} {
			t.Row(m.String(), results[m].RecoveryVolumeRel)
		}
		fmt.Println("\n== §4.3 — recovery volume ==")
		t.Render(os.Stdout)
	})
	b.ReportMetric(results[lifesim.ShrinkS].RecoveryVolumeRel, "shrinkS-vol")
	b.ReportMetric(results[lifesim.RegenS].RecoveryVolumeRel, "regenS-vol")
}

// -------------------------------------------------------------------------
// T-cap — §4.1 capacity averages.
// -------------------------------------------------------------------------

func BenchmarkCapacityAverages(b *testing.B) {
	var results map[lifesim.Mode]*lifesim.Result
	for i := 0; i < b.N; i++ {
		results = runFleetModes(b)
	}
	b.ReportMetric(results[lifesim.RegenS].MeanShrinkCapacity, "regenS-shrink-cap")
	b.ReportMetric(results[lifesim.RegenS].MeanLifetimeCapacity, "regenS-life-cap")
}

// -------------------------------------------------------------------------
// Ablation: operator retire threshold — the knob behind the paper's 60%
// average-capacity assumption.
// -------------------------------------------------------------------------

var retireOnce sync.Once

func BenchmarkAblationRetireThreshold(b *testing.B) {
	thresholds := []float64{0.9, 0.8, 0.6, 0.4, 0.2}
	type row struct{ thresh, factor, cap float64 }
	var rows []row
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, th := range thresholds {
			cfg := fleetConfig()
			cfg.Mode = lifesim.RegenS
			cfg.RetireCapacity = th
			r, err := lifesim.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			base := fleetConfig()
			base.RetireCapacity = th
			br, err := lifesim.Run(base)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row{th, r.MeanLifetimeDays / br.MeanLifetimeDays, r.MeanShrinkCapacity})
		}
	}
	retireOnce.Do(func() {
		t := metrics.NewTable("retire threshold", "regenS lifetime factor", "shrink-phase capacity")
		for _, r := range rows {
			t.Row(r.thresh, r.factor, r.cap)
		}
		fmt.Println("\n== Ablation — operator retire threshold ==")
		t.Render(os.Stdout)
	})
}

// -------------------------------------------------------------------------
// Ablation: placement policy (spread vs pack) — §3.2's open question about
// correlated minidisk failures, measured as repair work per decommission.
// -------------------------------------------------------------------------

var placementOnce sync.Once

func BenchmarkAblationPlacement(b *testing.B) {
	run := func(p difs.Placement) difs.Stats {
		cfg := difs.DefaultConfig()
		cfg.Placement = p
		cluster, err := difs.NewCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			dcfg := core.DefaultConfig()
			dcfg.Flash.Geometry = flash.Geometry{
				Channels: 2, BlocksPerChan: 8, PagesPerBlock: 8,
				PageSize: rber.FPageSize, SpareSize: rber.SpareSize,
			}
			// 64-oPage minidisks hold 4 chunk slots each, so the placement
			// policy has real freedom (with 1 slot per disk the policies
			// coincide).
			dcfg.MSizeOPages = 64
			dcfg.RealECC = false
			dcfg.Flash.StoreData = false
			dcfg.Flash.Reliability.NominalPEC = 7 + float64(i)
			dcfg.Flash.Seed = uint64(i + 1)
			dcfg.Seed = uint64(i+1) * 7
			dev, err := core.New(dcfg, sim.NewEngine())
			if err != nil {
				b.Fatal(err)
			}
			cluster.AddNode(dev)
		}
		rng := stats.NewRNG(3)
		blob := make([]byte, 60000)
		for i := 0; i < 10; i++ {
			if err := cluster.Put(fmt.Sprintf("o%d", i), blob); err != nil {
				b.Fatal(err)
			}
		}
		for round := 0; round < 400; round++ {
			if total, free := cluster.Capacity(); total < 66 || free < 14 {
				break
			}
			name := fmt.Sprintf("o%d", rng.Intn(10))
			if err := cluster.Delete(name); err != nil {
				continue
			}
			if err := cluster.Put(name, blob); err != nil {
				break
			}
			if _, err := cluster.Repair(); err != nil {
				b.Fatal(err)
			}
		}
		return cluster.Stats()
	}
	var spread, pack difs.Stats
	for i := 0; i < b.N; i++ {
		spread = run(difs.PlacementSpread)
		pack = run(difs.PlacementPack)
	}
	placementOnce.Do(func() {
		t := metrics.NewTable("placement", "decommissions", "recovery ops", "degraded reads", "lost chunks")
		t.Row("spread", spread.DecommissionEvents, spread.RecoveryOps, spread.DegradedReads, spread.LostChunks)
		t.Row("pack", pack.DecommissionEvents, pack.RecoveryOps, pack.DegradedReads, pack.LostChunks)
		fmt.Println("\n== Ablation — placement policy ==")
		t.Render(os.Stdout)
	})
	b.ReportMetric(float64(spread.RecoveryOps), "spread-recovery-ops")
	b.ReportMetric(float64(pack.RecoveryOps), "pack-recovery-ops")
}

// -------------------------------------------------------------------------
// Device and codec micro-benchmarks (substrate cost, not a paper figure).
// -------------------------------------------------------------------------

func BenchmarkDeviceWrite4K(b *testing.B) {
	cfg := salamander.DefaultDeviceConfig()
	cfg.Flash.Geometry = flash.Geometry{
		Channels: 2, BlocksPerChan: 32, PagesPerBlock: 32,
		PageSize: rber.FPageSize, SpareSize: rber.SpareSize,
	}
	cfg.MSizeOPages = 64
	dev, err := salamander.NewDevice(cfg, salamander.NewEngine())
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, blockdev.OPageSize)
	space := dev.LiveLBAs()
	b.SetBytes(blockdev.OPageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := i % space
		md := blockdev.MinidiskID(lba / 64)
		if err := dev.Write(md, lba%64, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeviceRead4K(b *testing.B) {
	cfg := salamander.DefaultDeviceConfig()
	cfg.Flash.Geometry = flash.Geometry{
		Channels: 2, BlocksPerChan: 32, PagesPerBlock: 32,
		PageSize: rber.FPageSize, SpareSize: rber.SpareSize,
	}
	cfg.MSizeOPages = 64
	dev, err := salamander.NewDevice(cfg, salamander.NewEngine())
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, blockdev.OPageSize)
	const span = 512
	for lba := 0; lba < span; lba++ {
		if err := dev.Write(blockdev.MinidiskID(lba/64), lba%64, buf); err != nil {
			b.Fatal(err)
		}
	}
	if err := dev.Flush(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(blockdev.OPageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := i % span
		if err := dev.Read(blockdev.MinidiskID(lba/64), lba%64, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBCHEncode(b *testing.B) {
	code, err := salamander.LevelGeometry(0).Build()
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i)
	}
	parity := make([]byte, code.ParityBytes())
	b.SetBytes(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := code.EncodeInto(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBCHDecodeClean(b *testing.B) {
	code, err := salamander.LevelGeometry(0).Build()
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 512)
	parity := make([]byte, code.ParityBytes())
	if err := code.EncodeInto(data, parity); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.Decode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBCHDecodeCorrupted(b *testing.B) {
	code, err := salamander.LevelGeometry(0).Build()
	if err != nil {
		b.Fatal(err)
	}
	clean := make([]byte, 512)
	parity := make([]byte, code.ParityBytes())
	if err := code.EncodeInto(clean, parity); err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	b.SetBytes(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := append([]byte(nil), clean...)
		p := append([]byte(nil), parity...)
		// Flip 10 random data bits (well within t=39).
		for j := 0; j < 10; j++ {
			bit := rng.Intn(512 * 8)
			data[bit/8] ^= 1 << uint(bit%8)
		}
		if _, err := code.Decode(data, p); err != nil {
			b.Fatal(err)
		}
	}
}

// -------------------------------------------------------------------------
// Ablation: channel parallelism — §4.2's mitigation for RegenS's multi-page
// 16KB accesses. A 4-channel bus overlaps the extra reads and flattens the
// measured latency penalty back toward 1x.
// -------------------------------------------------------------------------

var channelsOnce sync.Once

func BenchmarkAblationChannelParallel16K(b *testing.B) {
	type point struct{ serial, parallel float64 }
	var p point
	for i := 0; i < b.N; i++ {
		scfg := perfmodel.DefaultConfig()
		scfg.DataMB = 8
		scfg.RandomReads = 400
		pcfg := scfg
		pcfg.Channels = 4
		s, err := perfmodel.Sweep(scfg, []float64{0, 1})
		if err != nil {
			b.Fatal(err)
		}
		pr, err := perfmodel.Sweep(pcfg, []float64{0, 1})
		if err != nil {
			b.Fatal(err)
		}
		p = point{s[1].Rand16KLatencyRel, pr[1].Rand16KLatencyRel}
	}
	channelsOnce.Do(func() {
		t := metrics.NewTable("device", "16K latency at f=1 (relative)")
		t.Row("serial", p.serial)
		t.Row("4-channel", p.parallel)
		fmt.Println("\n== Ablation — channel parallelism (§4.2 mitigation) ==")
		t.Render(os.Stdout)
	})
	b.ReportMetric(p.serial, "serial-lat16K")
	b.ReportMetric(p.parallel, "parallel-lat16K")
}

// -------------------------------------------------------------------------
// T-Ru — measured upgrade rate: a constant-capacity deployment purchases
// replacement drives as the fleet wears out; the purchase ratio IS Eq. 3's
// Ru, measured rather than assumed (paper: 0.83 ShrinkS / 0.66 RegenS).
// -------------------------------------------------------------------------

var upgradeOnce sync.Once

func BenchmarkUpgradeRate(b *testing.B) {
	var sRu, rRu float64
	for i := 0; i < b.N; i++ {
		cfg := fleetConfig()
		var err error
		sRu, err = lifesim.MeasuredUpgradeRate(cfg, lifesim.ShrinkS, 8000, 0.95)
		if err != nil {
			b.Fatal(err)
		}
		rRu, err = lifesim.MeasuredUpgradeRate(cfg, lifesim.RegenS, 8000, 0.95)
		if err != nil {
			b.Fatal(err)
		}
	}
	upgradeOnce.Do(func() {
		t := metrics.NewTable("mode", "measured Ru", "paper's assumed raw Ru")
		t.Row("shrinkS", sRu, 1/1.2)
		t.Row("regenS", rRu, 1/1.5)
		fmt.Println("\n== Measured SSD upgrade rate (constant-capacity deployment) ==")
		t.Render(os.Stdout)
	})
	b.ReportMetric(sRu, "shrinkS-Ru")
	b.ReportMetric(rRu, "regenS-Ru")
}

// -------------------------------------------------------------------------
// Ablation: redundancy mechanism — §4.3's recovery traffic under 3-way
// replication vs RS(4+2) erasure coding on aging Salamander fleets. EC
// stores 1.5x instead of 3x but pays k-fold read amplification per rebuilt
// shard.
// -------------------------------------------------------------------------

var ecOnce sync.Once

func BenchmarkAblationErasureCoding(b *testing.B) {
	run := func(ecMode bool) difs.Stats {
		cfg := difs.DefaultConfig()
		if ecMode {
			cfg.ECDataShards = 4
			cfg.ECParityShards = 2
		}
		cluster, err := difs.NewCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 7; i++ {
			dcfg := core.DefaultConfig()
			dcfg.Flash.Geometry = flash.Geometry{
				Channels: 2, BlocksPerChan: 8, PagesPerBlock: 8,
				PageSize: rber.FPageSize, SpareSize: rber.SpareSize,
			}
			dcfg.MSizeOPages = 64
			dcfg.RealECC = false
			dcfg.Flash.StoreData = false
			dcfg.Flash.Reliability.NominalPEC = 7 + float64(i)
			dcfg.Flash.Seed = uint64(i + 1)
			dcfg.Seed = uint64(i+1) * 7
			dev, err := core.New(dcfg, sim.NewEngine())
			if err != nil {
				b.Fatal(err)
			}
			cluster.AddNode(dev)
		}
		rng := stats.NewRNG(3)
		blob := make([]byte, 200000)
		for i := 0; i < 6; i++ {
			if err := cluster.Put(fmt.Sprintf("o%d", i), blob); err != nil {
				b.Fatal(err)
			}
		}
		for round := 0; round < 300; round++ {
			if total, free := cluster.Capacity(); total < 60 || free < 20 {
				break
			}
			name := fmt.Sprintf("o%d", rng.Intn(6))
			if err := cluster.Delete(name); err != nil {
				continue
			}
			if err := cluster.Put(name, blob); err != nil {
				break
			}
			if _, err := cluster.Repair(); err != nil {
				b.Fatal(err)
			}
		}
		return cluster.Stats()
	}
	var rep, ecStats difs.Stats
	for i := 0; i < b.N; i++ {
		rep = run(false)
		ecStats = run(true)
	}
	ecOnce.Do(func() {
		t := metrics.NewTable("redundancy", "put bytes", "decommissions",
			"recovery writes", "recovery reads", "read amplification", "lost chunks")
		amp := func(s difs.Stats) float64 {
			if s.RecoveryBytes == 0 {
				return 0
			}
			return float64(s.RecoveryReadBytes) / float64(s.RecoveryBytes)
		}
		t.Row("3-way replication", rep.PutBytes, rep.DecommissionEvents,
			rep.RecoveryBytes, rep.RecoveryReadBytes, amp(rep), rep.LostChunks)
		t.Row("RS(4+2)", ecStats.PutBytes, ecStats.DecommissionEvents,
			ecStats.RecoveryBytes, ecStats.RecoveryReadBytes, amp(ecStats), ecStats.LostChunks)
		fmt.Println("\n== Ablation — redundancy mechanism (§4.3 under EC) ==")
		t.Render(os.Stdout)
	})
	b.ReportMetric(float64(rep.RecoveryReadBytes), "repl-read-bytes")
	b.ReportMetric(float64(ecStats.RecoveryReadBytes), "ec-read-bytes")
}

// -------------------------------------------------------------------------
// Ablation: ECC family — the Fig. 2 ladder under capacity-approaching LDPC
// ceilings instead of hard-decision BCH. Absolute RBER headroom grows, but
// the diminishing-returns shape (and so the paper's L < 2 advice) persists.
// -------------------------------------------------------------------------

var ldpcOnce sync.Once

func BenchmarkAblationLDPCLadder(b *testing.B) {
	var bch, ldpc *rber.Model
	for i := 0; i < b.N; i++ {
		var err error
		bch, err = rber.New(rber.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		ldpc, err = rber.NewWithCeilings(rber.DefaultParams(), rber.LDPCCeilings(0.9))
		if err != nil {
			b.Fatal(err)
		}
	}
	ldpcOnce.Do(func() {
		t := metrics.NewTable("level", "BCH max RBER", "LDPC max RBER",
			"BCH benefit", "LDPC benefit")
		for l := 0; l <= rber.MaxUsableLevel; l++ {
			t.Row(fmt.Sprintf("L%d", l),
				bch.Level(l).MaxRBER, ldpc.Level(l).MaxRBER,
				bch.Level(l).Benefit, ldpc.Level(l).Benefit)
		}
		fmt.Println("\n== Ablation — ECC family (BCH vs LDPC ceilings) ==")
		t.Render(os.Stdout)
	})
	b.ReportMetric(ldpc.Level(2).Benefit, "ldpc-L2-benefit")
	b.ReportMetric(bch.Level(2).Benefit, "bch-L2-benefit")
}

// -------------------------------------------------------------------------
// T1 — telemetry overhead: the counter and histogram work a device write
// performs, measured against the write itself. The guard test below holds
// the hot-path instrumentation under 5% of a write.
// -------------------------------------------------------------------------

// deviceWriteLoop drives the analytic-path (no real ECC, no stored data)
// Salamander write — the cheapest write in the repo, so the most
// pessimistic denominator for the overhead ratio.
func deviceWriteLoop(b *testing.B) {
	cfg := salamander.DefaultDeviceConfig()
	cfg.Flash.Geometry = flash.Geometry{
		Channels: 2, BlocksPerChan: 32, PagesPerBlock: 32,
		PageSize: rber.FPageSize, SpareSize: rber.SpareSize,
	}
	cfg.MSizeOPages = 64
	cfg.Flash.StoreData = false
	cfg.RealECC = false
	// The measurement targets CPU cost per write, not wear: give the array
	// effectively infinite endurance so benchtime ramp-up can't wear it out.
	cfg.Flash.Reliability.NominalPEC = 1e9
	dev, err := salamander.NewDevice(cfg, salamander.NewEngine())
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, blockdev.OPageSize)
	space := dev.LiveLBAs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := i % space
		md := blockdev.MinidiskID(lba / 64)
		if err := dev.Write(md, lba%64, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// hotPathTelemetryLoop performs the telemetry work one instrumented host
// write does: two counter increments, one latency observation, and a
// nil-tracer emit (tracing off, the common case).
func hotPathTelemetryLoop(b *testing.B) {
	reg := telemetry.NewRegistry()
	hostWrites := reg.Counter("ssd.host_writes")
	flashWrites := reg.Counter("ssd.flash_writes")
	lat := reg.Histogram("ssd.host_write_latency_ns")
	var tr *telemetry.Tracer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hostWrites.Inc()
		flashWrites.Inc()
		lat.Observe(float64(i))
		tr.Emit(telemetry.Event{Kind: telemetry.KindPageProgram, Layer: "flash"})
	}
}

func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("device-write", deviceWriteLoop)
	b.Run("hot-path-telemetry", hotPathTelemetryLoop)
}

// TestTelemetryOverheadBudget pins the observability tax: the per-write
// telemetry work must cost less than 5% of the cheapest write path.
func TestTelemetryOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping overhead measurement in -short mode")
	}
	write := testing.Benchmark(deviceWriteLoop)
	tele := testing.Benchmark(hotPathTelemetryLoop)
	if write.NsPerOp() <= 0 || tele.NsPerOp() < 0 {
		t.Fatalf("implausible measurements: write %v, telemetry %v", write, tele)
	}
	ratio := float64(tele.NsPerOp()) / float64(write.NsPerOp())
	t.Logf("write %d ns/op, telemetry %d ns/op, overhead %.3f%%",
		write.NsPerOp(), tele.NsPerOp(), ratio*100)
	if ratio > 0.05 {
		t.Errorf("telemetry hot-path overhead %.2f%% exceeds the 5%% budget", ratio*100)
	}
}
