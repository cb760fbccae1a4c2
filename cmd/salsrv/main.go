// Command salsrv serves a difs cluster over TCP with the salamander wire
// protocol: per-connection read loops feed a bounded worker pool, pipelined
// requests are answered out of order by request id, and SIGINT/SIGTERM
// triggers a graceful drain — every admitted request is answered before the
// process exits.
//
// Usage:
//
//	salsrv [-addr HOST:PORT] [-addr-file FILE] [-devices mem|core]
//	       [-nodes N] [-disks N] [-lbas N] [-seed S] [-workers N]
//	       [-wear F] [-data-dir DIR] [-fsync=BOOL]
//	       [-op-timeout D] [-metrics-out FILE] [-trace FILE]
//	       [-ops-addr HOST:PORT] [-ops-addr-file FILE] [-ops-pprof]
//	       [-slow-op D] [-drain-linger D]
//	       [-own-shards SET] [-shard-map FILE]
//
// -own-shards runs the process as one member of a scale-out fleet: it
// instantiates only the named subset of the metadata shards (e.g. "0-3" of
// -shards 16), claims them in the shared manifest store so no two
// processes can open the same shard, and answers requests for foreign
// shards with StatusNotOwner carrying the current shard map. -shard-map
// loads the fleet's full map from a file (see cmd/salmap); without it a
// subset server synthesizes a partial map covering just its own shards.
// On SIGTERM the server publishes a map epoch vacating its shards before
// the -drain-linger window, so routing clients move off it ahead of the
// exit. In fleet mode each process keeps its node devices under a
// subset-named subtree of -data-dir; only DIR/cluster is shared.
//
// With -addr 127.0.0.1:0 the kernel picks a free port; -addr-file writes the
// bound address to FILE once the listener is up, so scripts (ci.sh) can wait
// for the file instead of racing the bind. Address files are removed again on
// clean exit, so a stale file means an unclean death. -devices mem backs the
// cluster with plain in-memory devices (fast, for protocol/load testing);
// -devices core builds the full Salamander data path (flash array,
// tiredness-aware FTL, analytic ECC) under every node, like the chaos
// harness does.
//
// -data-dir makes the daemon durable: every node's device persists its pages
// under DIR/node<i>, the cluster's object manifests live under DIR/cluster,
// and startup runs a recovery phase that rebuilds the namespace from them —
// verifying every replica's checksum against its device, quarantining torn
// data, and queueing repairs. While recovery runs, /readyz serves 503
// "recovering". A salsrv killed with SIGKILL and restarted on the same
// -data-dir comes back with its acked objects intact. -fsync=false skips the
// per-write fsync: state still survives kill -9 (the page cache outlives the
// process) but not power loss — useful for tests and CI.
//
// -ops-addr mounts the live ops surface (internal/obs) on a second listener:
// /metrics, /healthz, /readyz, /wear, and with -ops-pprof the Go profiler.
// /readyz flips to 503 the instant a shutdown signal arrives — before the
// data-plane drain begins — and -drain-linger holds the process in that
// not-ready-but-still-serving state for a grace period so load balancers
// observe the flip before connections start closing (the usual preStop
// pattern).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"salamander/internal/blockdev"
	"salamander/internal/core"
	"salamander/internal/difs"
	"salamander/internal/flash"
	"salamander/internal/obs"
	"salamander/internal/rber"
	"salamander/internal/salnet"
	"salamander/internal/shardmap"
	"salamander/internal/sim"
	"salamander/internal/store"
	"salamander/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("salsrv: ")
	var (
		addr       = flag.String("addr", "127.0.0.1:4150", "listen address (port 0 = kernel-assigned)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening")
		devices    = flag.String("devices", "mem", "node backing: mem (in-memory) or core (full Salamander data path)")
		nodes      = flag.Int("nodes", 6, "cluster nodes")
		disks      = flag.Int("disks", 8, "minidisks per mem node")
		lbas       = flag.Int("lbas", 512, "oPage slots per mem minidisk")
		seed       = flag.Uint64("seed", 1, "cluster/device seed")
		shards     = flag.Int("shards", 16, "metadata shards (must match an existing data dir's shard count; 1 = unsharded)")
		dataDir    = flag.String("data-dir", "", "persist device contents and cluster manifests under this directory and recover from it on start (empty = volatile)")
		fsync      = flag.Bool("fsync", true, "fsync durable writes; -fsync=false survives kill -9 but not power loss (faster, for tests)")
		workers    = flag.Int("workers", 16, "request worker pool size")
		opTimeout  = flag.Duration("op-timeout", 0, "per-operation deadline (0 = none)")
		wrTimeout  = flag.Duration("write-timeout", 0, "response write deadline; stalled readers are dropped (0 = 10s default, negative = none)")
		metricsOut = flag.String("metrics-out", "", "write the final telemetry snapshot JSON to this file on exit")
		tracePath  = flag.String("trace", "", "write the cross-layer event trace as JSONL to this file on exit")

		opsAddr     = flag.String("ops-addr", "", "ops HTTP listen address for /metrics, /healthz, /readyz, /wear (empty = disabled)")
		opsAddrFile = flag.String("ops-addr-file", "", "write the bound ops address to this file once listening")
		opsPprof    = flag.Bool("ops-pprof", false, "also mount /debug/pprof/* on the ops listener")
		slowOp      = flag.Duration("slow-op", 0, "log server ops slower than this into the event trace (0 = disabled)")
		drainLinger = flag.Duration("drain-linger", 0, "after a shutdown signal, keep serving for this long with /readyz at 503 before draining")

		ownShardsSpec = flag.String("own-shards", "", "serve only this subset of the metadata shards, e.g. \"0,1\" or \"4-7\" (empty = all); other processes own the rest of the namespace")
		shardMapPath  = flag.String("shard-map", "", "load the fleet's shard map from this file (shardmap format) and serve it to clients; without it a subset server synthesizes a partial map covering only its own shards")
		wear          = flag.Float64("wear", 0, "with -devices core: pre-wear the fleet's flash to this fraction of nominal PEC and serve through the real BCH data path (elevated RBER, grown stuck columns, tiredness levels)")
	)
	flag.Parse()
	if *wear < 0 || *wear > 1 {
		log.Fatal("-wear must be in [0, 1]")
	}
	if *wear > 0 && *devices != "core" {
		log.Fatal("-wear requires -devices core")
	}

	reg := telemetry.NewRegistry()
	var tr *telemetry.Tracer
	if *tracePath != "" {
		tr = telemetry.NewTracer(telemetry.DefaultTraceCapacity)
	}

	var ownShards []int
	if *ownShardsSpec != "" {
		own, err := shardmap.ParseShardSet(*ownShardsSpec, *shards)
		if err != nil {
			log.Fatal(err)
		}
		ownShards = own
	}
	var fleetMap *shardmap.Map
	if *shardMapPath != "" {
		m, err := shardmap.Load(*shardMapPath)
		if err != nil {
			log.Fatal(err)
		}
		if m.Shards != *shards {
			log.Fatalf("-shard-map %s is over %d shards, this server runs %d", *shardMapPath, m.Shards, *shards)
		}
		fleetMap = m
	}

	ccfg := difs.DefaultConfig()
	ccfg.ChunkOPages = 4
	ccfg.Seed = *seed * 31
	ccfg.Shards = *shards
	ccfg.OwnShards = ownShards
	cluster, err := difs.NewCluster(ccfg)
	if err != nil {
		log.Fatal(err)
	}
	cluster.Instrument(reg, tr)
	fileOpts := store.FileOptions{NoSync: !*fsync}
	// In fleet mode the processes share one data tree: DIR/cluster (the
	// manifest store, arbitrated by per-shard claim stamps) is common, but
	// each subset's devices and slot ledger are private — so node state
	// lives under a subset-named subtree.
	nodeRoot := *dataDir
	if *dataDir != "" && ownShards != nil {
		nodeRoot = filepath.Join(*dataDir, "own-"+strings.ReplaceAll(shardmap.FormatShardSet(ownShards), ",", "_"))
	}
	var devRefs []obs.DeviceRef
	var devs []blockdev.Device
	for i := 0; i < *nodes; i++ {
		dev, err := buildDevice(*devices, *seed, i, *disks, *lbas, *wear, nodeRoot, fileOpts)
		if err != nil {
			log.Fatal(err)
		}
		if inst, ok := dev.(interface {
			Instrument(*telemetry.Registry, *telemetry.Tracer)
		}); ok {
			inst.Instrument(reg, tr)
		}
		cluster.AddNode(dev)
		devs = append(devs, dev)
		devRefs = append(devRefs, obs.DeviceRef{Node: i, Device: 0, Dev: dev})
	}

	srv := salnet.NewServer(cluster, salnet.ServerConfig{
		Workers:         *workers,
		OpTimeout:       *opTimeout,
		WriteTimeout:    *wrTimeout,
		SlowOpThreshold: *slowOp,
	})
	srv.Instrument(reg, tr)

	// stopping flips the instant a shutdown signal arrives, before the
	// data-plane drain begins, so /readyz goes 503 while the server is still
	// accepting traffic (the -drain-linger window). recovering holds /readyz
	// at 503 "recovering" from before the ops listener is up until the
	// namespace is rebuilt — probes never see a ready-but-empty server.
	var stopping, recovering atomic.Bool
	recovering.Store(*dataDir != "")
	if *opsAddr != "" {
		ops, err := obs.Start(*opsAddr, obs.Config{
			Registry: reg,
			Ready: func() bool {
				return !recovering.Load() && !stopping.Load() && !srv.Draining()
			},
			NotReadyReason: func() string {
				// In fleet mode the reason names the owned subset, so a
				// prober can tell WHICH slice of the namespace is coming or
				// going without consulting the shard map.
				suffix := ""
				if ownShards != nil {
					suffix = " shards=" + shardmap.FormatShardSet(ownShards)
				}
				if recovering.Load() {
					return "recovering" + suffix
				}
				return "draining" + suffix
			},
			Devices: devRefs,
			Cluster: cluster,
			Pprof:   *opsPprof,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer ops.Close()
		log.Printf("ops surface on http://%s (/metrics /healthz /readyz /wear)", ops.Addr())
		if *opsAddrFile != "" {
			if err := os.WriteFile(*opsAddrFile, []byte(ops.Addr().String()+"\n"), 0o644); err != nil {
				log.Fatal(err)
			}
		}
	}

	var metaSt store.Store
	if *dataDir != "" {
		st, err := store.OpenFile(filepath.Join(*dataDir, "cluster"), fileOpts)
		if err != nil {
			log.Fatal(err)
		}
		metaSt = st
		quar, err := cluster.AttachMeta(st)
		if err != nil {
			log.Fatal(err)
		}
		if quar > 0 {
			log.Printf("recovery: quarantined %d manifests from an older layout", quar)
		}
		rep, err := cluster.Recover()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("recovered %d objects (%d chunks, %d replicas verified, %d quarantined, %d repairs queued, %d lost) in %v",
			rep.Objects, rep.Chunks, rep.VerifiedReplicas,
			rep.QuarantinedReplicas+rep.BadManifests, rep.RepairsQueued,
			len(rep.LostObjects), rep.Duration.Round(time.Millisecond))
		if rep.RepairsQueued > 0 {
			if copies, err := cluster.Repair(); err != nil {
				log.Printf("startup repair incomplete: %v", err)
			} else {
				log.Printf("startup repair: %d chunk copies restored", copies)
			}
		}
	}

	bound, err := srv.Start(*addr)
	if err != nil {
		log.Fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound.String()+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	// A subset server without a map file synthesizes a partial map covering
	// only its own shards at its bound address, so NotOwner rejections
	// always carry a routable payload even before an operator distributes
	// the full fleet map.
	if fleetMap == nil && ownShards != nil {
		m := shardmap.New(*shards)
		for _, s := range ownShards {
			m.Owners[s] = bound.String()
		}
		fleetMap = m
	}
	if fleetMap != nil {
		if err := srv.SetShardMap(fleetMap); err != nil {
			log.Fatal(err)
		}
		log.Printf("shard map installed: %s", fleetMap)
	}
	recovering.Store(false)

	total, free := cluster.Capacity()
	if ownShards != nil {
		log.Printf("serving shards %s of %d on %s (%d %s nodes, %d/%d chunk slots free)",
			shardmap.FormatShardSet(ownShards), *shards, bound, *nodes, *devices, free, total)
	} else {
		log.Printf("serving on %s (%d %s nodes, %d/%d chunk slots free)", bound, *nodes, *devices, free, total)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	stopping.Store(true)
	// Drain handoff, step one: before readiness flips and long before the
	// listener closes, publish a map epoch that vacates this process's
	// shards. Clients that refresh (or get redirected) during the linger
	// re-route ahead of the exit instead of discovering it as ECONNREFUSED.
	if cur := srv.ShardMap(); cur != nil {
		next := cur.Clone()
		next.Epoch++
		for _, s := range cluster.OwnedShards() {
			next.Owners[s] = ""
		}
		if err := srv.SetShardMap(next); err != nil {
			log.Printf("drain: vacate publish failed: %v", err)
		} else {
			log.Printf("drain: published map epoch %d vacating shards %s",
				next.Epoch, shardmap.FormatShardSet(cluster.OwnedShards()))
		}
	}
	if *drainLinger > 0 {
		log.Printf("not ready; lingering %v before drain...", *drainLinger)
		time.Sleep(*drainLinger)
	}
	log.Printf("draining...")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	exit := 0
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain failed: %v", err)
		exit = 1
	}
	if bad := cluster.CheckInvariants(); len(bad) > 0 {
		for _, v := range bad {
			log.Printf("invariant violation: %s", v)
		}
		exit = 1
	}
	// Settle durable state: devices checkpoint wear, stores sync. A clean
	// exit also removes the address files, so their presence after death
	// distinguishes a crash from a shutdown.
	for _, d := range devs {
		if c, ok := d.(interface{ Close() error }); ok {
			if err := c.Close(); err != nil {
				log.Printf("device close: %v", err)
				exit = 1
			}
		}
	}
	if metaSt != nil {
		if err := metaSt.Close(); err != nil {
			log.Printf("meta store close: %v", err)
			exit = 1
		}
	}
	if *addrFile != "" {
		os.Remove(*addrFile)
	}
	if *opsAddrFile != "" {
		os.Remove(*opsAddrFile)
	}

	snap := reg.Snapshot()
	log.Printf("drained: %d requests served, %d objects stored, invariants clean=%v",
		snap.Counters["net.server.requests"], len(cluster.Objects()), exit == 0)
	if *metricsOut != "" {
		raw, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*metricsOut, append(raw, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.WriteJSONL(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	os.Exit(exit)
}

// buildDevice constructs one node's backing device. The core variant mirrors
// the chaos harness fleet: real stored bytes, analytic ECC, alternating
// ShrinkS/RegenS deployments. With wear > 0 the core fleet instead starts
// tired: flash pre-worn to that fraction of nominal PEC with grown stuck
// columns, served through the real BCH data path (decode kernels and
// erasure hints do the work analytic ECC would skip) with tiredness levels
// up to 2 available. With dataDir set, both variants persist to
// dataDir/node<i> and reload whatever survived the last process.
func buildDevice(kind string, seed uint64, i, disks, lbas int, wear float64, dataDir string, fileOpts store.FileOptions) (blockdev.Device, error) {
	var st store.Store
	if dataDir != "" {
		fs, err := store.OpenFile(filepath.Join(dataDir, fmt.Sprintf("node%d", i)), fileOpts)
		if err != nil {
			return nil, err
		}
		st = fs
	}
	var dev interface {
		blockdev.Device
		Damaged() []string
	}
	switch kind {
	case "mem":
		if st == nil {
			return blockdev.NewMemDevice(disks, lbas), nil
		}
		d, err := blockdev.OpenDurable(st)
		if err != nil {
			return nil, err
		}
		// First boot on this directory: provision the minidisks.
		if len(d.Minidisks()) == 0 {
			for k := 0; k < disks; k++ {
				if _, err := d.AddMinidisk(lbas, 0); err != nil {
					return nil, err
				}
			}
		}
		dev = d
	case "core":
		dcfg := core.DefaultConfig()
		dcfg.Flash.Geometry = flash.Geometry{
			Channels:      4,
			BlocksPerChan: 16,
			PagesPerBlock: 16,
			PageSize:      rber.FPageSize,
			SpareSize:     rber.SpareSize,
		}
		dcfg.Flash.StoreData = true
		dcfg.RealECC = false
		dcfg.MSizeOPages = 16
		dcfg.MaxLevel = i % 2
		dcfg.Flash.Seed = seed + uint64(i)*977
		dcfg.Seed = seed*13 + uint64(i)
		if wear > 0 {
			dcfg.RealECC = true
			dcfg.MaxLevel = 2
			dcfg.Flash.PreWornPEC = uint32(wear * dcfg.Flash.Reliability.NominalPEC)
			// Modest grown-defect rate: a handful of stuck bit-lines per
			// block at full rating, enough to keep the erasure-hinted decode
			// path busy without blowing sector error budgets.
			dcfg.Flash.StuckColumnsPerNominalPEC = 8
		}
		if st == nil {
			return core.New(dcfg, sim.NewEngine())
		}
		d, err := core.OpenDurable(dcfg, sim.NewEngine(), st)
		if err != nil {
			return nil, err
		}
		dev = d
	default:
		return nil, fmt.Errorf("unknown -devices %q (want mem or core)", kind)
	}
	for _, k := range dev.Damaged() {
		log.Printf("node%d: dropped corrupt durable record %s", i, k)
	}
	return dev, nil
}
