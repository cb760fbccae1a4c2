package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"salamander/internal/stats"
	"salamander/internal/telemetry"
)

// kv is the op surface the load needs: salnet.Client over TCP, or the cluster
// itself in the traced direct pass.
type kv interface {
	Put(ctx context.Context, key string, data []byte) error
	Get(ctx context.Context, key string) ([]byte, error)
}

// tally counts outcomes. failed = errors + content mismatches; the closed
// loop never sheds load, so nothing is refused client-side, and a server-side
// refusal arrives as an error.
type tally struct {
	attempted, errors, mismatches int64
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.errors += o.errors
	t.mismatches += o.mismatches
}

func (t tally) failed() int64 { return t.errors + t.mismatches }

// doOp issues one op and verifies it. A PUT sends the key's next version and
// bumps it on ack; a GET must return exactly the last acknowledged version.
func (s *opStream) doOp(ctx context.Context, cl kv, o op, buf, want []byte, t *tally) bool {
	t.attempted++
	if o.get {
		data, err := cl.Get(ctx, s.keys[o.key])
		if err != nil {
			t.errors++
			return false
		}
		fill(want, s.seed, s.id, o.key, s.vers[o.key])
		if !bytes.Equal(data, want) {
			t.mismatches++
			return false
		}
		return true
	}
	v := s.vers[o.key] + 1
	fill(buf, s.seed, s.id, o.key, v)
	if err := cl.Put(ctx, s.keys[o.key], buf); err != nil {
		t.errors++
		return false
	}
	s.vers[o.key] = v
	return true
}

// preload writes version 1 of every key through cl, conc PUTs in flight.
// Keys are dealt round-robin to the workers, so no two touch the same one.
func preload(cl kv, streams []*opStream, conc int) tally {
	type item struct {
		s *opStream
		k int
	}
	var items []item
	for _, s := range streams {
		for k := range s.keys {
			items = append(items, item{s, k})
		}
	}
	var total tally
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var t tally
			buf, ctx := make([]byte, objectSize), context.Background()
			for i := w; i < len(items); i += conc {
				items[i].s.doOp(ctx, cl, op{key: items[i].k}, buf, nil, &t)
			}
			mu.Lock()
			total.add(t)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return total
}

// newStreams splits a workload's keys evenly over its streams.
func newStreams(sp spec, seed uint64, n int) []*opStream {
	streams := make([]*opStream, n)
	for i := range streams {
		streams[i] = newOpStream(sp, seed, i, sp.keys/n)
	}
	return streams
}

// Phases of a load run, flipped by the coordinator and read by streams after
// every op.
const (
	phaseWarmup int32 = iota
	phaseMeasure
	phaseDone
)

// loadResult is what one closed-loop window measured. The tally also covers
// warm-up: a failure outside the window still fails the run.
type loadResult struct {
	tally
	window     time.Duration
	gets, puts []float64 // exact latencies of verified ops in µs
	firstHalf  int64     // ops completed in the first half of the window
	cpu        time.Duration
	counters   telemetry.Snapshot // registry delta over the window
	mem0, mem1 runtime.MemStats
}

func (r *loadResult) ops() int64 { return int64(len(r.gets) + len(r.puts)) }

// runLoad drives the closed loop: every stream keeps exactly one op in
// flight, discards warm-up, then records exact latencies for the window. An
// op counts for the window if it completes inside it.
func runLoad(f *fleet, streams []*opStream, warmup, window time.Duration) *loadResult {
	type streamOut struct {
		tally
		gets, puts []float64
		firstHalf  int64
	}
	var (
		phase atomic.Int32
		mid   atomic.Int64 // unix ns of the window's midpoint
		outs  = make([]streamOut, len(streams))
		wg    sync.WaitGroup
	)
	for i, s := range streams {
		wg.Add(1)
		go func(s *opStream, out *streamOut) {
			defer wg.Done()
			ctx := context.Background()
			buf, want := make([]byte, objectSize), make([]byte, objectSize)
			for {
				o := s.next()
				t0 := time.Now()
				ok := s.doOp(ctx, f.client, o, buf, want, &out.tally)
				t1 := time.Now()
				switch p := phase.Load(); {
				case p == phaseDone:
					return
				case p == phaseWarmup || !ok:
					continue
				}
				us := float64(t1.Sub(t0).Nanoseconds()) / 1e3
				if o.get {
					out.gets = append(out.gets, us)
				} else {
					out.puts = append(out.puts, us)
				}
				if t1.UnixNano() < mid.Load() {
					out.firstHalf++
				}
			}
		}(s, &outs[i])
	}

	res := &loadResult{window: window}
	time.Sleep(warmup)
	// Window edges read process-wide counters only: rusage, MemStats and the
	// registry. Nothing is sampled while the window is open.
	runtime.ReadMemStats(&res.mem0)
	snap0 := f.reg.Snapshot()
	cpu0 := cpuTime()
	start := time.Now()
	mid.Store(start.Add(window / 2).UnixNano())
	phase.Store(phaseMeasure)
	time.Sleep(window)
	phase.Store(phaseDone)
	res.window = time.Since(start)
	res.cpu = cpuTime() - cpu0
	res.counters = f.reg.Snapshot().Delta(snap0)
	runtime.ReadMemStats(&res.mem1)
	wg.Wait()

	for i := range outs {
		res.tally.add(outs[i].tally)
		res.gets = append(res.gets, outs[i].gets...)
		res.puts = append(res.puts, outs[i].puts...)
		res.firstHalf += outs[i].firstHalf
	}
	return res
}

func median(v []float64) float64 { return stats.Percentile(v, 50) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
