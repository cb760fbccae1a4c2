package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"salamander/internal/blockdev"
	"salamander/internal/core"
	"salamander/internal/difs"
	"salamander/internal/flash"
	"salamander/internal/rber"
	"salamander/internal/salnet"
	"salamander/internal/sim"
	"salamander/internal/store"
	"salamander/internal/telemetry"
)

// salsrv's flag defaults. The harness builds every fleet through the
// constructors cmd/salsrv calls, with these constants, so a change to what
// those constructors return is measured without editing the benchmark. The
// fleet seed stays at salsrv's default: -seed varies the benchmark's inputs,
// not the system under test.
const (
	srvNodes   = 6
	srvDisks   = 8
	srvLBAs    = 512
	srvShards  = 16
	srvWorkers = 16
	srvSeed    = 1
	chunkPages = 4
)

// fleetConfig says which salsrv invocation to reproduce in-process.
type fleetConfig struct {
	devices string  // -devices
	wear    float64 // -wear
	dataDir string  // -data-dir (with -fsync=true); empty = volatile
	// analytic turns the worn fleet's RealECC off and changes nothing else:
	// the traced pass whose difference from the real one is the ECC's cost.
	// salsrv has no such flag.
	analytic bool
	rec      *recorder // nil = no wrappers
	conns    int       // client connection pool size
}

func (sp spec) fleetConfig(dataDir string) fleetConfig {
	cfg := fleetConfig{devices: sp.devices, wear: sp.wear, conns: 2}
	if sp.durable {
		cfg.dataDir = dataDir
	}
	return cfg
}

// fleet is one in-process salsrv plus the client the load is sent through.
type fleet struct {
	reg     *telemetry.Registry
	cluster *difs.Cluster
	devs    []blockdev.Device // as handed to AddNode (wrapped when tracing)
	stores  []store.Store     // unwrapped, closed by the fleet
	srv     *salnet.Server
	client  *salnet.Client

	openDurable time.Duration        // time inside blockdev.OpenDurable, all nodes
	recovery    *difs.RecoveryReport // nil on volatile fleets
}

func buildFleet(cfg fleetConfig) (f *fleet, err error) {
	f = &fleet{reg: telemetry.NewRegistry()}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	ccfg := difs.DefaultConfig()
	ccfg.ChunkOPages = chunkPages
	ccfg.Seed = srvSeed * 31
	ccfg.Shards = srvShards
	if f.cluster, err = difs.NewCluster(ccfg); err != nil {
		return f, err
	}
	f.cluster.Instrument(f.reg, nil)
	for i := 0; i < srvNodes; i++ {
		dev, err := f.buildDevice(cfg, i)
		if err != nil {
			return f, err
		}
		if cfg.rec != nil {
			dev = &tracedDevice{inner: dev, rec: cfg.rec, node: i}
		}
		if in, ok := dev.(instrumenter); ok {
			in.Instrument(f.reg, nil)
		}
		f.cluster.AddNode(dev)
		f.devs = append(f.devs, dev)
	}
	f.srv = salnet.NewServer(f.cluster, salnet.ServerConfig{Workers: srvWorkers})
	f.srv.Instrument(f.reg, nil)
	if cfg.dataDir != "" {
		st, err := f.openStore(cfg, filepath.Join(cfg.dataDir, "cluster"), -1, metaPut)
		if err != nil {
			return f, err
		}
		if _, err := f.cluster.AttachMeta(st); err != nil {
			return f, err
		}
		if f.recovery, err = f.cluster.Recover(); err != nil {
			return f, err
		}
		if f.recovery.RepairsQueued > 0 {
			if _, err := f.cluster.Repair(); err != nil {
				return f, err
			}
		}
	}
	addr, err := f.srv.Start("127.0.0.1:0")
	if err != nil {
		return f, err
	}
	f.client, err = salnet.Dial(salnet.ClientConfig{Addr: addr.String(), Conns: cfg.conns})
	if err != nil {
		return f, err
	}
	f.client.Instrument(f.reg, nil)
	return f, nil
}

// openStore opens a FileStore the way salsrv -fsync=true does and wraps it
// when tracing.
func (f *fleet) openStore(cfg fleetConfig, dir string, node int, base spanKind) (store.Store, error) {
	fs, err := store.OpenFile(dir, store.FileOptions{NoSync: false})
	if err != nil {
		return nil, err
	}
	f.stores = append(f.stores, fs)
	if cfg.rec != nil {
		return &tracedStore{inner: fs, rec: cfg.rec, node: node, base: base}, nil
	}
	return fs, nil
}

// buildDevice is cmd/salsrv's buildDevice for the flag combinations the
// workloads use (core devices are never durable here).
func (f *fleet) buildDevice(cfg fleetConfig, i int) (blockdev.Device, error) {
	switch cfg.devices {
	case "mem":
		if cfg.dataDir == "" {
			return blockdev.NewMemDevice(srvDisks, srvLBAs), nil
		}
		st, err := f.openStore(cfg, filepath.Join(cfg.dataDir, fmt.Sprintf("node%d", i)), i, storePut)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		dev, err := blockdev.OpenDurable(st)
		f.openDurable += time.Since(t0)
		if err != nil {
			return nil, err
		}
		if bad := dev.Damaged(); len(bad) > 0 {
			return nil, fmt.Errorf("node%d: corrupt durable records %v", i, bad)
		}
		if len(dev.Minidisks()) == 0 {
			for d := 0; d < srvDisks; d++ {
				if _, err := dev.AddMinidisk(srvLBAs, 0); err != nil {
					return nil, err
				}
			}
		}
		return dev, nil
	case "core":
		return core.New(coreConfig(i, cfg.wear, cfg.analytic), sim.NewEngine())
	}
	return nil, fmt.Errorf("unknown devices %q", cfg.devices)
}

// coreConfig is the core.Config salsrv's buildDevice gives node i.
func coreConfig(i int, wear float64, analytic bool) core.Config {
	dcfg := core.DefaultConfig()
	dcfg.Flash.Geometry = srvGeometry()
	dcfg.Flash.StoreData = true
	dcfg.RealECC = false
	dcfg.MSizeOPages = 16
	dcfg.MaxLevel = i % 2
	dcfg.Flash.Seed = srvSeed + uint64(i)*977
	dcfg.Seed = srvSeed*13 + uint64(i)
	if wear > 0 {
		dcfg.RealECC = !analytic
		dcfg.MaxLevel = 2
		dcfg.Flash.PreWornPEC = uint32(wear * dcfg.Flash.Reliability.NominalPEC)
		dcfg.Flash.StuckColumnsPerNominalPEC = 8
	}
	return dcfg
}

// srvGeometry is the flash geometry salsrv gives every core node.
func srvGeometry() flash.Geometry {
	return flash.Geometry{
		Channels:      4,
		BlocksPerChan: 16,
		PagesPerBlock: 16,
		PageSize:      rber.FPageSize,
		SpareSize:     rber.SpareSize,
	}
}

// close drains the server and settles durable state the way salsrv's
// shutdown path does. It returns every invariant violation and close error;
// nil means the run left the fleet clean.
func (f *fleet) close() error {
	var errs []error
	if f.client != nil {
		errs = append(errs, f.client.Close())
	}
	if f.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		errs = append(errs, f.srv.Shutdown(ctx))
		cancel()
	}
	if f.cluster != nil {
		for _, v := range f.cluster.CheckInvariants() {
			errs = append(errs, fmt.Errorf("invariant violation: %s", v))
		}
	}
	for _, d := range f.devs {
		if c, ok := d.(io.Closer); ok {
			errs = append(errs, c.Close())
		}
	}
	for _, st := range f.stores {
		errs = append(errs, st.Close())
	}
	return errors.Join(errs...)
}
