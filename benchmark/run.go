package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"salamander/internal/stats"
)

// A run builds and preloads its fleet several times and reports the median as
// setup_s; the last fleet built is the one measured. Three times at least,
// and up to maxSetUps while the total stays under setUpBudget: the mem fleet
// sets up in tens of milliseconds, where three samples are not steady.
const (
	minSetUps   = 3
	maxSetUps   = 9
	setUpBudget = time.Second
)

// runOpts are the knobs of one workload run that are not the workload's own.
type runOpts struct {
	seed     uint64
	window   time.Duration
	dataRoot string // durable_put's data dirs are created under it
	quick    bool   // smoke test: the minimum number of set-ups
}

// result is one run of one workload, as written to -out and read by -compare.
type result struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Violations []string               `json:"violations,omitempty"`
	EndToEnd   map[string]metricValue `json:"end_to_end"`
	PerLayer   map[string]metricValue `json:"per_layer,omitempty"`
	// Samples are the sample counts behind the reported percentiles.
	Samples map[string]int `json:"samples"`
}

func (r *result) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

func (r *result) count(t tally) {
	r.Attempted += t.attempted
	r.Failed += t.failed()
}

// setUp builds the workload's fleet and preloads every key through the
// client, conc PUTs in flight, so every later GET hits. The keys are split
// over nStreams op streams.
func setUp(sp spec, seed uint64, cfg fleetConfig, nStreams, conc int) (*fleet, []*opStream, tally, error) {
	f, err := buildFleet(cfg)
	if err != nil {
		return nil, nil, tally{}, fmt.Errorf("build %s fleet: %w", sp.name, err)
	}
	streams := newStreams(sp, seed, nStreams)
	return f, streams, preload(f.client, streams, conc), nil
}

// tearDown closes a fleet and reports what it left wrong.
func (r *result) tearDown(f *fleet, what string) {
	if err := f.close(); err != nil {
		r.violate("%s: %v", what, err)
	}
}

// freshDir makes a new data dir for a durable fleet. Volatile workloads get
// "" and never touch the filesystem.
func freshDir(sp spec, root string, n int) (string, error) {
	if !sp.durable {
		return "", nil
	}
	dir := filepath.Join(root, fmt.Sprintf("%s-%d-%d", sp.name, os.Getpid(), n))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// runEndToEnd is the untraced run: set-up (several times, for a steady
// setup_s), warm-up, one measured closed-loop window, then the correctness
// gates. It fills res.EndToEnd and returns the window for per-layer use.
func runEndToEnd(sp spec, o runOpts, res *result) (*loadResult, error) {
	var (
		f       *fleet
		streams []*opStream
		dir     string
		setups  []float64
	)
	var spent time.Duration
	for n := 0; n < minSetUps || !o.quick && n < maxSetUps && spent < setUpBudget; n++ {
		if f != nil {
			res.tearDown(f, "set-up fleet")
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			// Return the discarded fleet's memory before building the next,
			// so peak_rss_mb is one fleet's, not three.
			debug.FreeOSMemory()
		}
		var err error
		if dir, err = freshDir(sp, o.dataRoot, n); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var pre tally
		if f, streams, pre, err = setUp(sp, o.seed, sp.fleetConfig(dir), sp.streams, sp.streams); err != nil {
			return nil, err
		}
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
		res.count(pre)
	}
	defer os.RemoveAll(dir)

	lr := runLoad(f, streams, sp.warmup, o.window)
	res.count(lr.tally)
	total, free := f.cluster.Capacity()
	res.tearDown(f, "measured fleet")

	m := newMetricSet(endToEnd)
	ops := float64(lr.ops())
	m.set("setup_s", median(setups))
	m.set("ops_per_s", ops/lr.window.Seconds())
	m.set("get_p50_us", stats.Percentile(lr.gets, 50))
	m.set("get_p99_us", stats.Percentile(lr.gets, 99))
	m.set("put_p50_us", stats.Percentile(lr.puts, 50))
	m.set("put_p99_us", stats.Percentile(lr.puts, 99))
	m.set("cpu_ms_per_op", float64(lr.cpu.Microseconds())/1e3/ops)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m.set("peak_rss_mb", rss)

	// write_amp: bytes the devices wrote per user byte PUT. Flash-backed
	// fleets count programmed flash pages (the paper's lifespan currency:
	// replication x chunk padding x GC); mem-backed fleets count the oPages
	// difs handed to devices, which is all a RAM or file device writes.
	userPut := float64(len(lr.puts)) * objectSize
	written := float64(lr.counters.Counters["difs.put_bytes"])
	if sp.devices == "core" {
		written = float64(lr.counters.Counters["flash.program_ops"]) * float64(srvGeometry().PageSize)
	}
	m.set("write_amp", written/userPut)

	// stored_bytes_per_user_byte: what the fleet holds at the end per live
	// user byte. On disk for the durable fleet, occupied chunk slots elsewhere.
	live := float64(sp.keys) * objectSize
	stored := float64(total-free) * chunkPages * objectSize
	if sp.durable {
		_, bytes, err := diskUsage(dir)
		if err != nil {
			return nil, err
		}
		stored = float64(bytes)
		res.verifyReopen(sp, dir, streams, nil)
	}
	m.set("stored_bytes_per_user_byte", stored/live)

	for name, v := range m.values {
		if v.Value <= 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.violate("end-to-end metric %s = %v: the window measured nothing", name, v.Value)
		}
	}
	res.EndToEnd = m.values
	res.Samples["get"] = len(lr.gets)
	res.Samples["put"] = len(lr.puts)
	return lr, nil
}

// verifyReopen is durable_put's restart gate: the closed fleet's data dir is
// opened again by a fresh fleet (OpenDurable replay + Cluster.Recover) and
// every acknowledged object must read back at its last acknowledged version.
// This proves process-restart durability only — the page cache is intact;
// power-loss states are ROADMAP item 3. With layers set, the reopen's own
// timings are recorded.
func (r *result) verifyReopen(sp spec, dir string, streams []*opStream, layers *metricSet) {
	f, err := buildFleet(sp.fleetConfig(dir))
	if err != nil {
		r.violate("reopen %s: %v", dir, err)
		return
	}
	defer r.tearDown(f, "reopened fleet")
	if layers != nil {
		layers.set("blockdev.open_durable_ms", float64(f.openDurable.Microseconds())/1e3)
		layers.set("difs.recover_ms", float64(f.recovery.Duration.Microseconds())/1e3)
		layers.set("difs.recover_objects", float64(f.recovery.Objects))
	}
	if n := len(f.recovery.LostObjects) + f.recovery.QuarantinedReplicas + f.recovery.BadManifests; n > 0 {
		r.violate("reopen: recovery lost or quarantined %d records: %+v", n, f.recovery)
	}
	var t tally
	ctx, want := context.Background(), make([]byte, objectSize)
	for _, s := range streams {
		for k := range s.keys {
			s.doOp(ctx, f.client, op{get: true, key: k}, nil, want, &t)
		}
	}
	r.count(t)
}

// diskUsage sums the regular files under dir: count and logical bytes.
func diskUsage(dir string) (files int, bytes int64, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files++
		bytes += info.Size()
		return nil
	})
	return files, bytes, err
}

// procMetrics derives the process layer's per-op costs from the MemStats
// read at the window's edges, and the stationarity guard.
func procMetrics(lr *loadResult, m *metricSet) {
	ops := float64(lr.ops())
	m.set("proc.alloc_bytes_per_op", float64(lr.mem1.TotalAlloc-lr.mem0.TotalAlloc)/ops)
	m.set("proc.allocs_per_op", float64(lr.mem1.Mallocs-lr.mem0.Mallocs)/ops)
	m.set("proc.gc_pause_ms", float64(lr.mem1.PauseTotalNs-lr.mem0.PauseTotalNs)/1e6)
	second := float64(lr.ops() - lr.firstHalf)
	// |first-half rate - second-half rate| / whole-window rate.
	m.set("drift_frac", 2*math.Abs(float64(lr.firstHalf)-second)/ops)
	if req := lr.counters.Counters["net.server.requests"]; req > 0 {
		m.set("salnet.batched_frac", float64(lr.counters.Counters["net.server.batched_ops"])/float64(req))
	}
}
