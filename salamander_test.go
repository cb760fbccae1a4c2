package salamander_test

import (
	"bytes"
	"fmt"
	"testing"

	"salamander"
	"salamander/internal/flash"
	"salamander/internal/rber"
)

// smallDeviceConfig keeps facade tests fast.
func smallDeviceConfig() salamander.DeviceConfig {
	cfg := salamander.DefaultDeviceConfig()
	cfg.Flash.Geometry = flash.Geometry{
		Channels:      2,
		BlocksPerChan: 8,
		PagesPerBlock: 8,
		PageSize:      rber.FPageSize,
		SpareSize:     rber.SpareSize,
	}
	cfg.MSizeOPages = 16
	return cfg
}

func TestPublicDeviceRoundTrip(t *testing.T) {
	eng := salamander.NewEngine()
	dev, err := salamander.NewDevice(smallDeviceConfig(), eng)
	if err != nil {
		t.Fatal(err)
	}
	var iface salamander.Device = dev // facade interface satisfied
	buf := bytes.Repeat([]byte{0xAB}, salamander.OPageSize)
	if err := iface.Write(0, 1, buf); err != nil {
		t.Fatal(err)
	}
	// Flush so the oPage reaches flash (and the virtual clock advances);
	// otherwise the read is served from the NV buffer.
	if err := dev.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, salamander.OPageSize)
	if err := iface.Read(0, 1, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("public API round trip failed")
	}
	if eng.Now() == 0 {
		t.Error("virtual clock did not advance")
	}
}

func TestPublicBaselineDevice(t *testing.T) {
	cfg := salamander.DefaultBaselineConfig()
	cfg.Flash.Geometry = flash.Geometry{
		Channels:      2,
		BlocksPerChan: 8,
		PagesPerBlock: 8,
		PageSize:      rber.FPageSize,
		SpareSize:     rber.SpareSize,
	}
	dev, err := salamander.NewBaselineDevice(cfg, salamander.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	mds := dev.Minidisks()
	if len(mds) != 1 {
		t.Fatalf("baseline exposes %d minidisks, want 1", len(mds))
	}
}

func TestPublicClusterOverDevices(t *testing.T) {
	cluster, err := salamander.NewCluster(salamander.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cfg := smallDeviceConfig()
		cfg.Flash.Seed = uint64(i + 1)
		dev, err := salamander.NewDevice(cfg, salamander.NewEngine())
		if err != nil {
			t.Fatal(err)
		}
		cluster.AddNode(dev)
	}
	data := bytes.Repeat([]byte{7}, 100000)
	if err := cluster.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	got, err := cluster.Get("obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cluster round trip failed")
	}
}

func TestPublicFleetAndModels(t *testing.T) {
	cfg := salamander.DefaultFleetConfig()
	cfg.Devices = 8
	cfg.BlocksPerDevice = 32
	factor, err := salamander.FleetLifetimeFactor(cfg, salamander.FleetRegenS)
	if err != nil {
		t.Fatal(err)
	}
	if factor <= 1 {
		t.Errorf("RegenS lifetime factor %v <= 1", factor)
	}
	if s := salamander.CarbonSavingsFromLifetime(factor, false); s <= 0 {
		t.Errorf("carbon savings %v", s)
	}
	if got := salamander.PerfDegradationFactor(1); got != 4.0/3 {
		t.Errorf("degradation factor = %v", got)
	}
	if len(salamander.Fig4Scenarios()) != 4 {
		t.Error("Fig4Scenarios wrong size")
	}
	model, err := salamander.NewReliabilityModel(salamander.DefaultReliabilityParams())
	if err != nil {
		t.Fatal(err)
	}
	if model.Level(1).Benefit < 1.4 {
		t.Errorf("L1 benefit %v", model.Level(1).Benefit)
	}
	code, err := salamander.NewBCHCode(10, 64*8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if code.T != 4 {
		t.Errorf("code T = %d", code.T)
	}
}

func TestPublicEventsObservable(t *testing.T) {
	cfg := smallDeviceConfig()
	cfg.RealECC = false
	cfg.Flash.StoreData = false
	cfg.Flash.Reliability.NominalPEC = 8
	dev, err := salamander.NewDevice(cfg, salamander.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	var kinds []salamander.EventKind
	dev.Notify(func(e salamander.Event) { kinds = append(kinds, e.Kind) })
	buf := make([]byte, salamander.OPageSize)
	for round := 0; round < 200 && len(kinds) == 0 && !dev.Retired(); round++ {
		for _, m := range dev.Minidisks() {
			for lba := 0; lba < m.LBAs; lba++ {
				if err := dev.Write(m.ID, lba, buf); err != nil {
					break
				}
			}
		}
	}
	if len(kinds) == 0 {
		t.Skip("no events within budget")
	}
	if kinds[0] != salamander.EventDecommission && kinds[0] != salamander.EventRegenerate {
		t.Errorf("first event %v", kinds[0])
	}
}

func TestPublicReplacementAndPerf(t *testing.T) {
	cfg := salamander.DefaultFleetConfig()
	cfg.Devices = 8
	cfg.BlocksPerDevice = 32
	rr, err := salamander.RunReplacement(cfg, 3000, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Purchased < cfg.Devices {
		t.Errorf("purchased %d", rr.Purchased)
	}
	ru, err := salamander.MeasuredUpgradeRate(cfg, salamander.FleetRegenS, 5000, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ru <= 0 || ru > 1.2 {
		t.Errorf("measured Ru = %v", ru)
	}
	pcfg := salamander.DefaultPerfConfig()
	pcfg.DataMB = 4
	pcfg.RandomReads = 100
	results, err := salamander.MeasurePerf(pcfg, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[1].SeqThroughputRel >= results[0].SeqThroughputRel {
		t.Errorf("perf sweep shape wrong: %+v", results)
	}
	fleet, err := salamander.RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.MeanLifetimeDays <= 0 {
		t.Error("fleet lifetime zero")
	}
}

func TestPublicRSCodeAndPlacement(t *testing.T) {
	code, err := salamander.NewRSCode(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var shards [][]byte
	for i := 0; i < 4; i++ {
		shards = append(shards, bytes.Repeat([]byte{3}, 250))
	}
	parity, err := code.EncodeParity(shards)
	if err != nil {
		t.Fatal(err)
	}
	all := append(shards, parity...)
	all[0] = nil
	all[5] = nil
	if err := code.Reconstruct(all); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Join(all[:4], nil); len(got) != 1000 || got[0] != 3 {
		t.Error("RS round trip failed through the facade")
	}
	// Placement constants usable in a config.
	cfg := salamander.DefaultClusterConfig()
	cfg.Placement = salamander.PlacementPack
	if _, err := salamander.NewCluster(cfg); err != nil {
		t.Fatal(err)
	}
	var _ salamander.Placement = salamander.PlacementSpread
}

func TestPublicDeviceHealthAndScrub(t *testing.T) {
	dev, err := salamander.NewDevice(smallDeviceConfig(), salamander.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	if h := dev.Wear(); h.CapacityFrac != 1 {
		t.Errorf("fresh health: %+v", h)
	}
	buf := bytes.Repeat([]byte{1}, salamander.OPageSize)
	if err := dev.Write(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := dev.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := dev.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned == 0 {
		t.Error("scrub scanned nothing")
	}
}

// TestPublicTelemetryEndToEnd drives an instrumented cluster of aging
// devices through the public API and asserts the acceptance bar of the
// telemetry work: one run produces at least 6 distinct event kinds
// spanning at least 3 layers, and the registry carries every layer's
// counters.
func TestPublicTelemetryEndToEnd(t *testing.T) {
	reg := salamander.NewTelemetryRegistry()
	tr := salamander.NewTelemetryTracer(0)

	cluster, err := salamander.NewCluster(salamander.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	cluster.Instrument(reg, tr)
	for i := 0; i < 3; i++ {
		cfg := smallDeviceConfig()
		// Analytic data path with tiny endurance so wear-driven lifecycle
		// events (tiredness transitions, decommissions, regenerations)
		// happen within a short churn.
		cfg.Flash.StoreData = false
		cfg.RealECC = false
		cfg.Flash.Reliability.NominalPEC = 8 * (1 + 0.12*float64(i))
		cfg.Flash.Seed = uint64(i + 1)
		cfg.Seed = uint64(i+1) * 13
		cfg.MaxLevel = 1
		dev, err := salamander.NewDevice(cfg, salamander.NewEngine())
		if err != nil {
			t.Fatal(err)
		}
		dev.Instrument(reg, tr)
		cluster.AddNode(dev)
	}

	blob := bytes.Repeat([]byte{9}, 60000)
	for i := 0; i < 8; i++ {
		if err := cluster.Put(fmt.Sprintf("obj-%d", i), blob); err != nil {
			t.Fatal(err)
		}
	}
churn:
	for round := 0; round < 60; round++ {
		for i := 0; i < 8; i++ {
			if total, free := cluster.Capacity(); total < 48 || free < 4 {
				break churn
			}
			name := fmt.Sprintf("obj-%d", i)
			if err := cluster.Delete(name); err != nil {
				continue
			}
			if err := cluster.Put(name, blob); err != nil {
				break churn
			}
			if _, err := cluster.Repair(); err != nil {
				t.Fatal(err)
			}
		}
	}

	evs := tr.Events()
	kinds := map[salamander.TraceEventKind]bool{}
	layers := map[string]bool{}
	for _, e := range evs {
		kinds[e.Kind] = true
		layers[e.Layer] = true
	}
	if len(kinds) < 6 {
		t.Errorf("trace has %d distinct kinds, want >= 6: %v", len(kinds), kinds)
	}
	if len(layers) < 3 {
		t.Errorf("trace spans %d layers, want >= 3: %v", len(layers), layers)
	}

	snap := reg.Snapshot()
	for _, name := range []string{"flash.program_ops", "core.host_writes", "difs.put_bytes"} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s is zero in the shared registry", name)
		}
	}
	if h, ok := snap.Histograms["core.host_write_latency_ns"]; !ok || h.Count == 0 {
		t.Error("core write-latency histogram empty")
	}
}
