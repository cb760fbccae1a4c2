// Command salload is the concurrent load generator for salsrv: N clients ×
// M pipelining depth, each pipeline stream driving a read/write mix from
// internal/workload over its own keyspace, with every read verified against
// the deterministically generated content it must hold. It reports
// throughput and latency percentiles, optionally as a JSON report, and
// exits non-zero on any error or content mismatch. It is the multi-process
// load and correctness tool; the repo's wall-clock performance evidence is
// the benchmark harness (go run ./benchmark), not salload's figures.
//
// Usage:
//
//	salload -addr HOST:PORT [-clients N] [-depth N] [-ops N] [-objects N]
//	        [-size N] [-read-frac F] [-zipf S] [-hot-frac F] [-seed S]
//	        [-verify] [-out FILE]
//	salload -shard-map FILE [same options]
//
// With -shard-map the load drives a scale-out fleet instead of one server:
// every client becomes a salnet.Router over the map file, ops route to each
// key's owning endpoint, and stale-map NotOwner rejections are absorbed by
// the router's transparent retry. The report then splits ops, errors, and
// redirect retries per endpoint, so an imbalanced or half-dead fleet is
// visible in the report, not averaged away.
//
// Keys are partitioned per pipeline stream ("c<client>-w<stream>-o<obj>"), so
// -verify is race-free: each stream is the only writer and reader of its
// keys, and object content is a pure function of (stream, object, version).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"salamander/internal/difs"
	"salamander/internal/salnet"
	"salamander/internal/shardmap"
	"salamander/internal/stats"
	"salamander/internal/telemetry"
	"salamander/internal/workload"
)

// Report is the -out JSON schema. The p50/p95/p99 trio appears three
// times: over all ops, and split by read and write, because the two paths
// have different tails (writes pay erasure encoding and placement, reads pay
// reconstruction only when degraded) and a combined quantile hides whichever
// side the mix underweights.
type Report struct {
	Clients  int     `json:"clients"`
	Depth    int     `json:"depth"`
	Ops      int64   `json:"ops"`
	ReadFrac float64 `json:"read_frac"`
	ZipfSkew float64 `json:"zipf_skew"`
	HotFrac  float64 `json:"hot_frac"`
	// TopDecileFrac is the measured skew: the fraction of ops that landed on
	// each stream's hottest decile of objects. ~0.1 for uniform, higher for
	// zipf/hot-spot — recorded so the report states what traffic shape the
	// numbers were taken under, not just what was requested.
	TopDecileFrac float64 `json:"top_decile_frac"`
	SizeBytes     int     `json:"size_bytes"`
	Elapsed       float64 `json:"elapsed_sec"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	P50us         float64 `json:"p50_us"`
	P95us         float64 `json:"p95_us"`
	P99us         float64 `json:"p99_us"`
	Reads         int64   `json:"reads"`
	ReadP50us     float64 `json:"read_p50_us"`
	ReadP95us     float64 `json:"read_p95_us"`
	ReadP99us     float64 `json:"read_p99_us"`
	ReadErrors    int64   `json:"read_errors"`
	Writes        int64   `json:"writes"`
	WriteP50us    float64 `json:"write_p50_us"`
	WriteP95us    float64 `json:"write_p95_us"`
	WriteP99us    float64 `json:"write_p99_us"`
	WriteErrs     int64   `json:"write_errors"`
	Errors        int64   `json:"errors"`
	Mismatches    int64   `json:"mismatches"`
	Retries       uint64  `json:"retries"`
	Reconnects    uint64  `json:"reconnects"`
	// Endpoints is the per-endpoint split (fleet mode only): each owning
	// endpoint's ops, errors, and redirect retries, summed across clients.
	Endpoints []salnet.EndpointStats `json:"endpoints,omitempty"`
}

// kvClient is the op surface a load stream needs; both the single-server
// Client and the fleet Router satisfy it.
type kvClient interface {
	Put(ctx context.Context, key string, data []byte) error
	Get(ctx context.Context, key string) ([]byte, error)
	Close() error
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("salload: ")
	var (
		addr     = flag.String("addr", "", "salsrv address (required unless -shard-map)")
		mapPath  = flag.String("shard-map", "", "drive the whole fleet through routing clients built from this shard map file (instead of one -addr)")
		clients  = flag.Int("clients", 8, "client connections (one pooled Client each)")
		depth    = flag.Int("depth", 8, "pipelining depth: concurrent streams per client")
		ops      = flag.Int64("ops", 40000, "total operations across all streams")
		objects  = flag.Int("objects", 16, "objects per stream keyspace")
		size     = flag.Int("size", 4096, "object size in bytes")
		readFrac = flag.Float64("read-frac", 0.5, "fraction of ops that are reads")
		zipf     = flag.Float64("zipf", 0, "zipfian skew over each keyspace (0 = uniform)")
		hotFrac  = flag.Float64("hot-frac", 0, "fraction of ops aimed at the hottest 10% of each keyspace (0 = off; exclusive with -zipf)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		verify   = flag.Bool("verify", true, "verify read contents against the deterministic model")
		outPath  = flag.String("out", "", "write the report JSON to this file")
	)
	flag.Parse()
	if (*addr == "") == (*mapPath == "") {
		log.Fatal("exactly one of -addr or -shard-map is required")
	}
	if *zipf > 0 && *hotFrac > 0 {
		log.Fatal("-zipf and -hot-frac are exclusive")
	}
	streams := *clients * *depth
	if streams <= 0 {
		log.Fatal("-clients and -depth must be positive")
	}
	perStream := *ops / int64(streams)
	if perStream <= 0 {
		log.Fatal("-ops too small for clients x depth streams")
	}

	reg := telemetry.NewRegistry()
	lat := reg.Histogram("net.load.op_us")
	latR := reg.Histogram("net.load.read_us")
	latW := reg.Histogram("net.load.write_us")
	pool := make([]kvClient, *clients)
	var routers []*salnet.Router
	if *mapPath != "" {
		m, err := shardmap.Load(*mapPath)
		if err != nil {
			log.Fatal(err)
		}
		for c := range pool {
			r, err := salnet.NewRouter(salnet.RouterConfig{Map: m, Client: salnet.ClientConfig{Conns: 2}})
			if err != nil {
				log.Fatal(err)
			}
			r.Instrument(reg, nil)
			defer r.Close()
			pool[c] = r
			routers = append(routers, r)
		}
	} else {
		for c := range pool {
			cl, err := salnet.Dial(salnet.ClientConfig{Addr: *addr, Conns: 2})
			if err != nil {
				log.Fatalf("dial %s: %v", *addr, err)
			}
			cl.Instrument(reg, nil)
			defer cl.Close()
			pool[c] = cl
		}
	}

	var done, errCount, mismatches int64
	var readErrs, writeErrs, hotHits int64
	hotObjs := (*objects + 9) / 10
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *clients; c++ {
		for d := 0; d < *depth; d++ {
			c, d := c, d
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := stream{
					cl:      pool[c],
					prefix:  fmt.Sprintf("c%d-w%d", c, d),
					id:      uint64(c**depth + d),
					seed:    *seed,
					size:    *size,
					verify:  *verify,
					lat:     lat,
					latR:    latR,
					latW:    latW,
					vers:    make([]int, *objects),
					done:    &done,
					errs:    &errCount,
					errsR:   &readErrs,
					errsW:   &writeErrs,
					mismat:  &mismatches,
					hotObjs: hotObjs,
					hotHits: &hotHits,
				}
				rng := stats.NewRNG(*seed*1_000_003 + s.id*7919)
				var base workload.Generator
				switch {
				case *zipf > 0:
					base = workload.NewZipfian(rng, *objects, *zipf)
				case *hotFrac > 0:
					base = &workload.HotSpot{Space: *objects, HotSpace: hotObjs, HotFrac: *hotFrac, Rng: rng}
				default:
					base = &workload.Uniform{Space: *objects, Rng: rng}
				}
				gen := &workload.Mix{Gen: base, ReadFrac: *readFrac, Rng: rng}
				s.run(gen, perStream)
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	snap := reg.Snapshot()
	h := snap.Histograms["net.load.op_us"]
	hr := snap.Histograms["net.load.read_us"]
	hw := snap.Histograms["net.load.write_us"]
	rep := Report{
		Clients: *clients, Depth: *depth, Ops: done,
		ReadFrac: *readFrac, ZipfSkew: *zipf, HotFrac: *hotFrac, SizeBytes: *size,
		Elapsed:   elapsed.Seconds(),
		OpsPerSec: float64(done) / elapsed.Seconds(),
		P50us:     h.Quantile(0.50),
		P95us:     h.Quantile(0.95),
		P99us:     h.Quantile(0.99),
		Reads:     int64(hr.Count),
		ReadP50us: hr.Quantile(0.50), ReadP95us: hr.Quantile(0.95), ReadP99us: hr.Quantile(0.99),
		ReadErrors: readErrs,
		Writes:     int64(hw.Count),
		WriteP50us: hw.Quantile(0.50), WriteP95us: hw.Quantile(0.95), WriteP99us: hw.Quantile(0.99),
		WriteErrs: writeErrs,
		Errors:    errCount, Mismatches: mismatches,
		Retries:    snap.Counters["net.client.retries"],
		Reconnects: snap.Counters["net.client.reconnects"],
	}
	if done > 0 {
		rep.TopDecileFrac = float64(hotHits) / float64(done)
	}
	if len(routers) > 0 {
		merged := map[string]*salnet.EndpointStats{}
		for _, r := range routers {
			for _, es := range r.EndpointStats() {
				m := merged[es.Endpoint]
				if m == nil {
					m = &salnet.EndpointStats{Endpoint: es.Endpoint}
					merged[es.Endpoint] = m
				}
				m.Ops += es.Ops
				m.Errors += es.Errors
				m.Redirects += es.Redirects
			}
		}
		eps := make([]string, 0, len(merged))
		for ep := range merged {
			eps = append(eps, ep)
		}
		sort.Strings(eps)
		for _, ep := range eps {
			rep.Endpoints = append(rep.Endpoints, *merged[ep])
		}
	}
	fmt.Printf("== salload: %d clients x depth %d, %d ops (%d B objects, %.0f%% reads, zipf %.2f, hot %.2f) ==\n",
		rep.Clients, rep.Depth, rep.Ops, rep.SizeBytes, rep.ReadFrac*100, rep.ZipfSkew, rep.HotFrac)
	fmt.Printf("skew:       %.1f%% of ops hit each stream's hottest decile\n", rep.TopDecileFrac*100)
	fmt.Printf("throughput: %.0f ops/s over %.2fs\n", rep.OpsPerSec, rep.Elapsed)
	fmt.Printf("latency:    p50 %.0fus  p95 %.0fus  p99 %.0fus\n", rep.P50us, rep.P95us, rep.P99us)
	fmt.Printf("reads:      %d ops  p50 %.0fus  p95 %.0fus  p99 %.0fus  errors=%d\n",
		rep.Reads, rep.ReadP50us, rep.ReadP95us, rep.ReadP99us, rep.ReadErrors)
	fmt.Printf("writes:     %d ops  p50 %.0fus  p95 %.0fus  p99 %.0fus  errors=%d\n",
		rep.Writes, rep.WriteP50us, rep.WriteP95us, rep.WriteP99us, rep.WriteErrs)
	fmt.Printf("health:     errors=%d mismatches=%d retries=%d reconnects=%d\n",
		rep.Errors, rep.Mismatches, rep.Retries, rep.Reconnects)
	for _, es := range rep.Endpoints {
		fmt.Printf("endpoint:   %s ops=%d errors=%d redirects=%d\n",
			es.Endpoint, es.Ops, es.Errors, es.Redirects)
	}

	exit := 0
	if rep.Errors > 0 || rep.Mismatches > 0 {
		log.Printf("FAIL: %d errors, %d content mismatches", rep.Errors, rep.Mismatches)
		exit = 1
	}
	if *outPath != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*outPath, append(raw, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report written to %s\n", *outPath)
	}
	os.Exit(exit)
}

// stream is one pipeline stream: the only writer and reader of its keyspace.
type stream struct {
	cl     kvClient
	prefix string
	id     uint64
	seed   uint64
	size   int
	verify bool
	lat    *telemetry.Histogram
	latR   *telemetry.Histogram
	latW   *telemetry.Histogram
	vers   []int // last acknowledged version per object (0 = never written)

	hotObjs                                   int // head size for the measured-skew counter
	done, errs, errsR, errsW, mismat, hotHits *int64
}

// content derives an object's bytes from (stream, object, version) alone, so
// any stream can regenerate the expected bytes for a read without shared
// state.
func (s *stream) content(obj, version int) []byte {
	rng := stats.NewRNG(s.seed ^ (s.id+1)*0x9e3779b97f4a7c15 ^ uint64(obj)<<32 ^ uint64(version))
	b := make([]byte, s.size)
	for i := range b {
		b[i] = byte(rng.Uint64())
	}
	return b
}

func (s *stream) run(gen workload.Generator, n int64) {
	ctx := context.Background()
	for i := int64(0); i < n; i++ {
		op := gen.Next()
		obj := op.LBA
		if obj < s.hotObjs {
			atomic.AddInt64(s.hotHits, 1)
		}
		key := fmt.Sprintf("%s-o%d", s.prefix, obj)
		t0 := time.Now()
		if op.Read {
			data, err := s.cl.Get(ctx, key)
			switch {
			case errors.Is(err, difs.ErrNotFound) && s.vers[obj] == 0:
				// Reading a never-written key misses; that's correct.
			case err != nil:
				atomic.AddInt64(s.errs, 1)
				atomic.AddInt64(s.errsR, 1)
			case s.verify:
				want := s.content(obj, s.vers[obj])
				if s.vers[obj] == 0 || !equal(data, want) {
					atomic.AddInt64(s.mismat, 1)
				}
			}
			s.latR.Observe(float64(time.Since(t0).Microseconds()))
		} else {
			v := s.vers[obj] + 1
			if err := s.cl.Put(ctx, key, s.content(obj, v)); err != nil {
				atomic.AddInt64(s.errs, 1)
				atomic.AddInt64(s.errsW, 1)
			} else {
				s.vers[obj] = v
			}
			s.latW.Observe(float64(time.Since(t0).Microseconds()))
		}
		s.lat.Observe(float64(time.Since(t0).Microseconds()))
		atomic.AddInt64(s.done, 1)
	}
}

func equal(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
