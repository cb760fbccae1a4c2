// Package chaos is the deterministic fault-schedule runner capping the
// fault-injection stack: it drives a difs cluster of Salamander devices
// through a seed-derived interleaving of object churn, injected flash faults
// (transient read failures, program failures), host-event loss/duplication,
// and node crash/restart cycles, while continuously asserting the DESIGN.md
// §6 invariants — no acknowledged data loss, Eq. 2, limbo conservation,
// replication restored after convergence.
//
// Everything is derived from one seed: the op schedule, every device's RNG,
// and each fault site's per-site stream. Virtual time replaces wall time, so
// the same seed produces a byte-identical Report — a failing schedule is a
// repro case, not an anecdote.
package chaos

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"salamander/internal/core"
	"salamander/internal/difs"
	"salamander/internal/faultinject"
	"salamander/internal/flash"
	"salamander/internal/rber"
	"salamander/internal/salnet"
	"salamander/internal/sim"
	"salamander/internal/stats"
	"salamander/internal/telemetry"
)

// Config parameterizes one chaos run.
type Config struct {
	// Seed derives every random decision in the run.
	Seed uint64
	// Ops is the number of scheduled operations.
	Ops int
	// Nodes is the cluster size (one Salamander device each); minimum 4 so
	// 3-way replication survives one crashed node. Default 6.
	Nodes int
	// Net routes every put/get/delete through a loopback salnet server and
	// pooled client with the network failpoints (conn drop, injected latency,
	// truncated frame) armed, so the schedule also exercises the serving
	// layer's retry/reconnect path. Off by default: existing seeds keep their
	// byte-identical reports. The client runs sequentially on the schedule
	// goroutine, so failpoint hit ordinals — and therefore the report — stay
	// deterministic per seed.
	Net bool
	// Shards is the diFS metadata shard count. 0 means 1 (standalone): the
	// chaos harness always pins the count explicitly so a DIFS_SHARDS
	// environment override can never leak into a seeded run and change the
	// report. Per-shard RNG streams derive from the seed, so reports stay
	// byte-identical per (seed, shards) pair.
	Shards int

	// armOverride replaces the default fault-site plans (tests only).
	armOverride map[string]float64
	// noCrash disables the crash/restart ops (tests only).
	noCrash bool
}

// checkEvery runs the cross-layer invariant sweep after every this many ops
// (and always at the end).
const checkEvery = 100

// DefaultConfig returns the standard small-fleet chaos setup.
func DefaultConfig() Config {
	return Config{Seed: 1, Ops: 20000, Nodes: 6}
}

// Report is the deterministic outcome of a run. Two runs with the same
// Config render byte-identical reports.
type Report struct {
	Cfg Config
	// Op-mix tallies.
	Puts, Gets, Deletes, Repairs int
	GetErrsDuringCrash           int
	// Fault tallies (from the shared telemetry registry).
	FlashInjected, SSDRecovered, CoreRecovered int64
	EventDrops, EventDups                      int64
	NodeCrashes, NodeRestarts, Quarantines     int64
	RepairRetries                              int64
	// Network tallies (zero unless Cfg.Net).
	NetOps, NetRetries, NetReconnects int64
	NetInjected, NetRecovered         int64
	// Cluster outcome.
	RecoveryOps, LostChunks int64
	ObjectsAtEnd            int
	// Violations lists every invariant violation and acknowledged-data-loss
	// incident observed, in schedule order. Empty means the run is clean.
	Violations []string
	// Telemetry is the end-of-run snapshot of the shared registry spanning
	// every layer (flash, ftl, core, difs, faultinject counters).
	Telemetry telemetry.Snapshot
}

// Render writes the report in a stable, diff-friendly layout.
func (r *Report) Render(w *bytes.Buffer) {
	fmt.Fprintf(w, "chaos seed=%d ops=%d nodes=%d", r.Cfg.Seed, r.Cfg.Ops, r.Cfg.Nodes)
	if r.Cfg.Shards > 1 {
		// Only stamped when sharded so pre-shard seeds render byte-identically.
		fmt.Fprintf(w, " shards=%d", r.Cfg.Shards)
	}
	fmt.Fprintf(w, "\n")
	fmt.Fprintf(w, "ops: puts=%d gets=%d deletes=%d repairs=%d gets-during-crash-errors=%d\n",
		r.Puts, r.Gets, r.Deletes, r.Repairs, r.GetErrsDuringCrash)
	fmt.Fprintf(w, "faults: flash-injected=%d ssd-recovered=%d core-recovered=%d event-drops=%d event-dups=%d\n",
		r.FlashInjected, r.SSDRecovered, r.CoreRecovered, r.EventDrops, r.EventDups)
	fmt.Fprintf(w, "nodes: crashes=%d restarts=%d quarantines=%d repair-retries=%d\n",
		r.NodeCrashes, r.NodeRestarts, r.Quarantines, r.RepairRetries)
	if r.Cfg.Net {
		fmt.Fprintf(w, "net: ops=%d retries=%d reconnects=%d injected=%d recovered=%d\n",
			r.NetOps, r.NetRetries, r.NetReconnects, r.NetInjected, r.NetRecovered)
	}
	fmt.Fprintf(w, "cluster: recovery-ops=%d lost-chunks=%d objects=%d\n",
		r.RecoveryOps, r.LostChunks, r.ObjectsAtEnd)
	if len(r.Violations) == 0 {
		fmt.Fprintf(w, "violations: none\n")
		return
	}
	fmt.Fprintf(w, "violations: %d\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  - %s\n", v)
	}
}

// runner holds one run's state.
type runner struct {
	cfg     Config
	rng     *stats.RNG
	cluster *difs.Cluster
	devs    []*core.Device
	frs     []*faultinject.Registry
	model   map[string][]byte
	rep     *Report
	reg     *telemetry.Registry

	// Net mode: put/get/delete go through the loopback serving layer.
	srv *salnet.Server
	cl  *salnet.Client
}

// put/get/del route one schedule op through the serving layer when Net mode
// is on, or straight to the cluster otherwise. The network path maps status
// responses back to difs sentinels, so callers' errors.Is checks hold on
// either path.
func (r *runner) put(name string, data []byte) error {
	if r.cl == nil {
		return r.cluster.Put(name, data)
	}
	r.rep.NetOps++
	return r.cl.Put(context.Background(), name, data)
}

func (r *runner) get(name string) ([]byte, error) {
	if r.cl == nil {
		return r.cluster.Get(name)
	}
	r.rep.NetOps++
	return r.cl.Get(context.Background(), name)
}

func (r *runner) del(name string) error {
	if r.cl == nil {
		return r.cluster.Delete(name)
	}
	r.rep.NetOps++
	err := r.cl.Delete(context.Background(), name)
	if err == nil {
		// The serving layer's delete is idempotent: deleting a missing object
		// answers OK. Preserve the direct path's contract so the schedule's
		// tallies mean the same thing on both paths.
		if _, ok := r.model[name]; !ok {
			return difs.ErrNotFound
		}
	}
	return err
}

// Run executes one deterministic chaos schedule. The returned Report is
// always non-nil; schedule-level violations live in Report.Violations (they
// are data, not errors). The error is reserved for setup failures. When tr
// is non-nil the whole stack emits its cross-layer events (including
// fault_injected / node_crash / repair_retry) into it.
func Run(cfg Config, tr *telemetry.Tracer) (*Report, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 6
	}
	if cfg.Nodes < 4 {
		return nil, fmt.Errorf("chaos: need >= 4 nodes for R=3 plus one crashed, got %d", cfg.Nodes)
	}
	reg := telemetry.NewRegistry()

	ccfg := difs.DefaultConfig()
	ccfg.ChunkOPages = 4
	ccfg.ReadRetries = 2
	ccfg.RetryBackoff = 100 * sim.Microsecond
	// Quarantine stays off: the schedule crashes nodes uniformly forever, so
	// any finite flap limit would eventually quarantine the whole fleet and
	// (correctly) lose data — a scenario the difs unit tests cover instead.
	ccfg.FlapLimit = 0
	ccfg.Seed = cfg.Seed * 31
	ccfg.Shards = cfg.Shards
	if ccfg.Shards == 0 {
		ccfg.Shards = 1
	}
	cluster, err := difs.NewCluster(ccfg)
	if err != nil {
		return nil, err
	}
	cluster.Instrument(reg, tr)

	r := &runner{
		cfg:     cfg,
		rng:     stats.NewRNG(cfg.Seed),
		cluster: cluster,
		model:   map[string][]byte{},
		rep:     &Report{Cfg: cfg},
		reg:     reg,
	}
	for i := 0; i < cfg.Nodes; i++ {
		dcfg := core.DefaultConfig()
		dcfg.Flash.Geometry = flash.Geometry{
			Channels:      2,
			BlocksPerChan: 8,
			PagesPerBlock: 8,
			PageSize:      rber.FPageSize,
			SpareSize:     rber.SpareSize,
		}
		dcfg.Flash.StoreData = true // end-to-end content checks need real bytes
		dcfg.RealECC = false        // analytic ECC: fast, same retry semantics
		dcfg.MSizeOPages = 16
		// Mix deployments: even nodes run ShrinkS, odd nodes RegenS; half the
		// fleet drains decommissions under the §4.3 grace period.
		dcfg.MaxLevel = i % 2
		dcfg.GraceDecommission = i%2 == 1
		// One device-level retry: most injected read faults recover inside
		// the device, the occasional double fault escalates to the cluster's
		// own retry/backoff path.
		dcfg.MaxReadRetries = 1
		// Moderate, staggered endurance: enough wear-driven decommissions and
		// regenerations flow during a run to give the host-event fault sites
		// (drop/duplicate) real traffic, without devices dying wholesale.
		dcfg.Flash.Reliability.NominalPEC = 15 * (1 + 0.12*float64(i))
		dcfg.Flash.Seed = cfg.Seed + uint64(i)*977
		dcfg.Seed = cfg.Seed*13 + uint64(i)
		dev, err := core.New(dcfg, sim.NewEngine())
		if err != nil {
			return nil, err
		}
		dev.Instrument(reg, tr)

		// One fault registry per device: its fire decisions follow the
		// device's own virtual clock and per-site RNG streams.
		fr := faultinject.New(cfg.Seed + uint64(i)*7919)
		fr.Instrument(reg, tr)
		dev.InjectFaults(fr)
		sites := []struct {
			name string
			prob float64
		}{
			{"flash.read.transient", 0.01},
			{"flash.program.fail", 0.003},
			{"core.event.drop", 0.02},
			{"core.event.duplicate", 0.02},
		}
		if cfg.armOverride != nil {
			sites = sites[:0]
			for _, name := range []string{"flash.read.transient", "flash.program.fail", "core.event.drop", "core.event.duplicate"} {
				if p, ok := cfg.armOverride[name]; ok {
					sites = append(sites, struct {
						name string
						prob float64
					}{name, p})
				}
			}
		}
		for _, site := range sites {
			if err := fr.Arm(site.name, faultinject.Plan{Prob: site.prob}); err != nil {
				return nil, err
			}
		}

		r.frs = append(r.frs, fr)
		r.devs = append(r.devs, dev)
		cluster.AddNode(dev)
	}

	if cfg.Net {
		// One extra fault registry for the serving layer. A single sequential
		// client keeps every failpoint's hit ordinal — and so the report —
		// deterministic per seed; retries after drops/truncations are part of
		// that deterministic sequence.
		netFR := faultinject.New(cfg.Seed*104729 + 1)
		netFR.Instrument(reg, tr)
		srv := salnet.NewServer(cluster, salnet.ServerConfig{
			InjectedLatency: 100 * time.Microsecond,
		})
		srv.Instrument(reg, tr)
		srv.InjectFaults(netFR)
		for site, prob := range map[string]float64{
			"net.conn.drop":      0.015,
			"net.resp.slow":      0.005,
			"net.frame.truncate": 0.01,
		} {
			if err := netFR.Arm(site, faultinject.Plan{Prob: prob}); err != nil {
				return nil, err
			}
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("chaos: net serving layer: %w", err)
		}
		cl, err := salnet.Dial(salnet.ClientConfig{
			Addr:         addr.String(),
			MaxRetries:   8,
			RetryBackoff: 200 * time.Microsecond,
		})
		if err != nil {
			srv.Shutdown(context.Background())
			return nil, fmt.Errorf("chaos: net serving layer: %w", err)
		}
		cl.Instrument(reg, tr)
		cl.InjectFaults(netFR)
		r.srv, r.cl = srv, cl
	}

	r.run()

	if r.cl != nil {
		// A clean drain is part of the contract under test.
		r.cl.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := r.srv.Shutdown(ctx); err != nil {
			r.violate("net: shutdown drain failed: %v", err)
		}
		cancel()
		r.rep.NetRetries = int64(reg.Counter("net.client.retries").Value())
		r.rep.NetReconnects = int64(reg.Counter("net.client.reconnects").Value())
		r.rep.NetInjected = int64(reg.Counter("net.faults_injected").Value())
		r.rep.NetRecovered = int64(reg.Counter("net.faults_recovered").Value())
		// Refresh the snapshot so the net.* counters land in Telemetry too.
		r.rep.Telemetry = reg.Snapshot()
	}
	return r.rep, nil
}

func (r *runner) violate(format string, args ...any) {
	r.rep.Violations = append(r.rep.Violations, fmt.Sprintf(format, args...))
}

func (r *runner) anyDown() bool {
	for i := range r.devs {
		if r.cluster.NodeDown(difs.NodeID(i)) {
			return true
		}
	}
	return false
}

func (r *runner) restartAll() {
	for i := range r.devs {
		if r.cluster.NodeDown(difs.NodeID(i)) {
			r.cluster.RestartNode(difs.NodeID(i))
		}
	}
}

// checkInvariants sweeps the whole stack: difs metadata, then every device's
// §6 accounting (Eq. 2, limbo conservation, page-state conservation).
func (r *runner) checkInvariants(when string) {
	for _, v := range r.cluster.CheckInvariants() {
		r.violate("%s: difs: %s", when, v)
	}
	for i, d := range r.devs {
		if err := d.CheckInvariants(); err != nil {
			r.violate("%s: node %d: %v", when, i, err)
		}
	}
}

func (r *runner) run() {
	rng := r.rng
	for op := 0; op < r.cfg.Ops; op++ {
		name := fmt.Sprintf("o%d", rng.Intn(24))
		switch rng.Intn(20) {
		case 0, 1, 2, 3: // put
			if _, ok := r.model[name]; ok {
				break
			}
			// Capacity guard: leave headroom so repair placement never
			// starves (replication factor x chunk slots per object).
			if _, free := r.cluster.Capacity(); free < 40 {
				break
			}
			data := make([]byte, rng.Intn(30000))
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			if err := r.put(name, data); err == nil {
				r.model[name] = data
				r.rep.Puts++
			}
		case 4, 5: // delete
			if err := r.del(name); err == nil {
				delete(r.model, name)
				r.rep.Deletes++
			}
		case 6, 7, 8, 9, 10, 11, 12, 13: // get
			want, ok := r.model[name]
			if !ok {
				break
			}
			r.rep.Gets++
			got, err := r.get(name)
			if err != nil {
				// Tolerable only while a crash hides replicas.
				if r.anyDown() {
					r.rep.GetErrsDuringCrash++
				} else {
					r.violate("op %d: get %q failed with all nodes up: %v", op, name, err)
				}
				break
			}
			if !bytes.Equal(got, want) {
				r.violate("op %d: get %q returned wrong content (acknowledged data corrupted)", op, name)
			}
		case 14: // crash one node (at most one down at a time)
			nid := difs.NodeID(rng.Intn(len(r.devs)))
			if !r.cfg.noCrash && !r.anyDown() {
				r.cluster.CrashNode(nid)
			}
		case 15: // restart whatever is down
			r.restartAll()
		case 16, 17, 18: // repair
			r.rep.Repairs++
			if _, err := r.cluster.Repair(); err != nil {
				// Any loss is a violation: crashes retain data and injected
				// faults never destroy more than redundancy covers.
				r.violate("op %d: repair reported loss: %v", op, err)
			}
		case 19: // quiesce: restart everything and fully repair
			r.restartAll()
			for i := 0; i < 4 && r.cluster.PendingRepairs() > 0; i++ {
				r.rep.Repairs++
				if _, err := r.cluster.Repair(); err != nil {
					r.violate("op %d: quiesce repair reported loss: %v", op, err)
				}
			}
		}
		if (op+1)%checkEvery == 0 {
			r.checkInvariants(fmt.Sprintf("op %d", op))
		}
	}

	// Convergence: restart every crashed node, drain the repair queue, then
	// demand full replication health and intact content for every
	// acknowledged object.
	r.restartAll()
	for i := 0; i < 16 && r.cluster.PendingRepairs() > 0; i++ {
		r.rep.Repairs++
		if _, err := r.cluster.Repair(); err != nil {
			r.violate("convergence: repair reported loss: %v", err)
		}
	}
	if n := r.cluster.PendingRepairs(); n > 0 {
		r.violate("convergence: %d repairs still pending after drain", n)
	}
	r.checkInvariants("final")
	names := make([]string, 0, len(r.model))
	for name := range r.model {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got, err := r.cluster.Get(name)
		if err != nil {
			r.violate("final: acknowledged object %q unreadable: %v", name, err)
			continue
		}
		if !bytes.Equal(got, r.model[name]) {
			r.violate("final: acknowledged object %q corrupted", name)
		}
	}

	// Fill the report from the shared registry and the per-device fault
	// registries (all deterministic values).
	snap := func(name string) int64 {
		return int64(r.reg.Counter(name).Value())
	}
	st := r.cluster.Stats()
	r.rep.FlashInjected = snap("flash.faults_injected")
	r.rep.SSDRecovered = snap("ssd.faults_recovered")
	r.rep.CoreRecovered = snap("core.faults_recovered")
	for _, fr := range r.frs {
		r.rep.EventDrops += int64(fr.Site("core.event.drop").Fires())
		r.rep.EventDups += int64(fr.Site("core.event.duplicate").Fires())
	}
	r.rep.NodeCrashes = st.NodeCrashes
	r.rep.NodeRestarts = st.NodeRestarts
	r.rep.Quarantines = st.Quarantines
	r.rep.RepairRetries = st.RepairRetries
	r.rep.RecoveryOps = st.RecoveryOps
	r.rep.LostChunks = st.LostChunks
	r.rep.ObjectsAtEnd = len(r.cluster.Objects())
	if st.LostChunks > 0 && len(r.rep.Violations) == 0 {
		r.violate("lost chunks counter = %d without a reported repair error", st.LostChunks)
	}
	r.rep.Telemetry = r.reg.Snapshot()
}
