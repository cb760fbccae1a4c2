package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"salamander/internal/stats"
	"salamander/internal/workload"
)

// objectSize is every workload's value size: one oPage, the smallest unit the
// stack stores, so per-op overhead is as visible as it can be.
const objectSize = 4096

// spec is one workload: the fleet salsrv would build, the op mix, and how
// many closed-loop streams keep ops in flight.
type spec struct {
	name     string
	why      string
	devices  string  // salsrv -devices
	wear     float64 // salsrv -wear
	durable  bool    // salsrv -data-dir D -fsync=true
	readFrac float64
	zipf     float64 // 0 = uniform
	keys     int     // preloaded in set-up, so every GET hits
	streams  int     // ops in flight, spread over the client's 2 connections
	warmup   time.Duration
	traceOps int // fixed op count of each traced pass
}

// workloads are fixed by ISSUE 11; later issues cite the names.
var workloads = []spec{
	{
		name: "mem_mix",
		why:  "device, ECC and store do ~nothing, so salnet+wire+difs are all the work; per-op overhead shows here first",
		// zipf so hot keys contend on shard locks; 1024 of the mem fleet's
		// 2048 object slots, leaving room for replace's double occupancy.
		devices: "mem", readFrac: 0.5, zipf: 1.1, keys: 1024, streams: 16,
		warmup: 3 * time.Second, traceOps: 20000,
	},
	{
		name: "worn_read",
		why:  "worn real-ECC flash, 90% GET: BCH check/decode and erasure-hinted decode dominate; CPU-bound at 2 in flight",
		// uniform so reads miss the FTL write buffer and reach flash; 512 of
		// ~1900 object slots.
		devices: "core", wear: 0.6, readFrac: 0.9, keys: 512, streams: 2,
		warmup: 3 * time.Second, traceOps: 4000,
	},
	{
		name:    "worn_write",
		why:     "same worn fleet, 90% PUT: BCH encode, page program, GC and wear; a decode win that costs encode shows here",
		devices: "core", wear: 0.6, readFrac: 0.1, keys: 512, streams: 2,
		warmup: 3 * time.Second, traceOps: 4000,
	},
	{
		name: "durable_put",
		why:  "mem devices on a -fsync=true data dir: store is the work (14 fsynced file puts + 12 deletes per PUT); GETs bypass it",
		// 16 in flight so a future group commit has something to batch.
		devices: "mem", durable: true, readFrac: 0.5, keys: 512, streams: 16,
		// A fresh data dir runs fast for its first seconds (empty shard
		// directories), so this warm-up is the longest.
		warmup: 6 * time.Second, traceOps: 1500,
	},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// quick shrinks a workload to smoke-test size: same fleet and mix, fewer
// keys, a token warm-up, a short traced pass.
func (sp spec) quick() spec {
	sp.keys /= 16
	sp.warmup = 100 * time.Millisecond
	sp.traceOps /= 40
	return sp
}

// op is one generated request.
type op struct {
	get bool
	key int // index into the stream's keys
}

// opStream is the seeded request generator of one closed-loop stream. The
// stream is the only writer and reader of its keys, so the expected content
// of every GET is known without shared state.
type opStream struct {
	id   int
	seed uint64
	keys []string
	vers []uint32 // last acknowledged version per key
	gen  workload.Generator
}

func newOpStream(sp spec, seed uint64, id, nKeys int) *opStream {
	s := &opStream{id: id, seed: seed, keys: make([]string, nKeys), vers: make([]uint32, nKeys)}
	for k := range s.keys {
		s.keys[k] = fmt.Sprintf("s%02d-k%04d", id, k)
	}
	rng := stats.NewRNG(seed*1_000_003 + uint64(id)*7919)
	var base workload.Generator = &workload.Uniform{Space: nKeys, Rng: rng}
	if sp.zipf > 0 {
		base = workload.NewZipfian(rng, nKeys, sp.zipf)
	}
	s.gen = &workload.Mix{Gen: base, ReadFrac: sp.readFrac, Rng: rng}
	return s
}

func (s *opStream) next() op {
	o := s.gen.Next()
	return op{get: o.Read, key: o.LBA}
}

// fill writes the content of (seed, stream, key, version) into buf: a
// splitmix64 sequence, cheap enough that generating and verifying payloads
// stays a small share of the generator's CPU.
func fill(buf []byte, seed uint64, stream, key int, version uint32) {
	x := seed ^ uint64(stream+1)*0x9e3779b97f4a7c15 ^ uint64(key)<<32 ^ uint64(version)
	for i := 0; i+8 <= len(buf); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(buf[i:], z^(z>>31))
	}
}
