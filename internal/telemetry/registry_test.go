package telemetry

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ssd.host_writes")
	c.Inc()
	c.Add(9)
	if got := c.Value(); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	if r.Counter("ssd.host_writes") != c {
		t.Fatal("Counter not idempotent: second lookup returned a new handle")
	}
	g := r.Gauge("core.capacity_frac")
	g.Set(0.75)
	if got := g.Value(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("gauge = %v, want 0.75", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ssd.read_latency_ns")
	// 100 observations at 1000, 10 at 100000.
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100000)
	}
	s := r.Snapshot().Histograms["ssd.read_latency_ns"]
	if s.Count != 110 {
		t.Fatalf("count = %d, want 110", s.Count)
	}
	if want := (100*1000.0 + 10*100000.0) / 110; math.Abs(s.Mean()-want) > 1e-9 {
		t.Fatalf("mean = %v, want %v", s.Mean(), want)
	}
	// p50 must land in the 1000 bucket (within 2x), p99 near 100000.
	if p := s.Quantile(0.5); p < 500 || p > 2000 {
		t.Fatalf("p50 = %v, want within the 1000 bucket", p)
	}
	if p := s.Quantile(0.99); p < 50000 || p > 200000 {
		t.Fatalf("p99 = %v, want within the 100000 bucket", p)
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	h := &Histogram{}
	h.Observe(0)
	h.Observe(-5)
	h.Observe(math.NaN())
	h.Observe(1e-300) // far under the smallest bucket
	h.Observe(1e300)  // far over the largest
	if h.n.Load() != 5 {
		t.Fatalf("N = %d, want 5", h.n.Load())
	}
	s := h.snapshot()
	var total uint64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 5 {
		t.Fatalf("bucketed = %d, want 5 (no sample may be lost)", total)
	}
	// RBER-scale values land in a finite bucket, not the underflow bucket.
	h2 := &Histogram{}
	h2.Observe(1e-10)
	b := h2.snapshot().Buckets[0]
	if b.Lo <= 0 || b.Hi >= 1 {
		t.Fatalf("1e-10 bucket [%v,%v) should be a proper sub-unit bucket", b.Lo, b.Hi)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("difs.recovery_ops")
	h := r.Histogram("difs.repair_bytes")
	g := r.Gauge("difs.pending")
	c.Add(5)
	h.Observe(4096)
	g.Set(3)
	before := r.Snapshot()
	c.Add(7)
	h.Observe(4096)
	h.Observe(65536)
	g.Set(1)
	diff := r.Snapshot().Diff(before)
	if diff.Counters["difs.recovery_ops"] != 7 {
		t.Fatalf("counter delta = %d, want 7", diff.Counters["difs.recovery_ops"])
	}
	dh := diff.Histograms["difs.repair_bytes"]
	if dh.Count != 2 {
		t.Fatalf("hist delta count = %d, want 2", dh.Count)
	}
	if math.Abs(dh.Sum-(4096+65536)) > 1e-9 {
		t.Fatalf("hist delta sum = %v, want %v", dh.Sum, 4096+65536.0)
	}
	if diff.Gauges["difs.pending"] != 1 {
		t.Fatalf("gauge in diff = %v, want current value 1", diff.Gauges["difs.pending"])
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.x").Add(2)
	s := r.Snapshot()
	s.Counters["a.x"] = 999
	if got := r.Counter("a.x").Value(); got != 2 {
		t.Fatalf("mutating a snapshot changed the live counter: %d", got)
	}
	if got := r.Snapshot().Counters["a.x"]; got != 2 {
		t.Fatalf("fresh snapshot = %d, want 2", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("flash.program_ops").Add(42)
	r.Gauge("core.capacity_frac").Set(0.5)
	r.Histogram("ssd.read_latency_ns").Observe(55000)
	s := r.Snapshot()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["flash.program_ops"] != 42 {
		t.Fatalf("counter lost in round trip: %+v", back.Counters)
	}
	if back.Histograms["ssd.read_latency_ns"].Count != 1 {
		t.Fatalf("histogram lost in round trip: %+v", back.Histograms)
	}
}

func TestConcurrentMutation(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("hot.counter").Inc()
				r.Histogram("hot.hist_ns").Observe(float64(i + 1))
				r.Gauge("hot.gauge").Set(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hot.counter").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Histogram("hot.hist_ns").n.Load(); got != workers*per {
		t.Fatalf("hist N = %d, want %d", got, workers*per)
	}
	if got := r.Gauge("hot.gauge").Value(); got != 1 {
		t.Fatalf("gauge = %v, want 1", got)
	}
}

func TestQuantileEdges(t *testing.T) {
	// Pinned behavior at the extremes (see the Quantile doc comment).
	t.Run("empty", func(t *testing.T) {
		var s HistSnapshot
		for _, q := range []float64{-1, 0, 0.5, 1, 2} {
			if got := s.Quantile(q); got != 0 {
				t.Fatalf("empty.Quantile(%v) = %v, want 0", q, got)
			}
		}
	})
	t.Run("count-without-buckets", func(t *testing.T) {
		// A Delta over an idle interval can leave Count/Sum deltas with no
		// bucket movement retained; Quantile must not panic.
		s := HistSnapshot{Count: 3, Sum: 42}
		if got := s.Quantile(0.5); got != 0 {
			t.Fatalf("bucketless.Quantile(0.5) = %v, want 0", got)
		}
	})
	t.Run("single-bucket", func(t *testing.T) {
		// With sub-bucket interpolation a single-bucket histogram is no
		// longer pinned at its midpoint: Quantile sweeps [Lo, Hi]
		// monotonically with q, which is exactly what keeps p50/p95/p99
		// distinguishable when all observations quantize into one bucket.
		h := &Histogram{}
		for i := 0; i < 7; i++ {
			h.Observe(1000)
		}
		s := h.snapshot()
		if len(s.Buckets) != 1 {
			t.Fatalf("want 1 bucket, got %d", len(s.Buckets))
		}
		lo, hi := s.Buckets[0].Lo, s.Buckets[0].Hi
		prev := -1.0
		for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
			got := s.Quantile(q)
			if got < lo || got > hi {
				t.Fatalf("single-bucket Quantile(%v) = %v outside [%v,%v]", q, got, lo, hi)
			}
			if got < prev {
				t.Fatalf("single-bucket Quantile not monotone at q=%v: %v < %v", q, got, prev)
			}
			prev = got
		}
		if got := s.Quantile(0); got != lo {
			t.Fatalf("single-bucket Quantile(0) = %v, want Lo %v", got, lo)
		}
		if got := s.Quantile(1); got != hi {
			t.Fatalf("single-bucket Quantile(1) = %v, want Hi %v", got, hi)
		}
	})
	t.Run("q0-q1-clamped", func(t *testing.T) {
		h := &Histogram{}
		h.Observe(1)   // low bucket
		h.Observe(1e6) // high bucket
		s := h.snapshot()
		low := s.Buckets[0].Lo
		high := s.Buckets[len(s.Buckets)-1].Hi
		cases := []struct {
			q    float64
			want float64
		}{
			{-0.5, low}, {0, low}, {1, high}, {1.5, high},
		}
		for _, c := range cases {
			if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
				t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
			}
		}
	})
}

// TestQuantileInterpolation pins the sub-bucket interpolation rule on a
// hand-built snapshot: rank r = q·Count lands in a bucket after `before`
// observations, and the value is Lo + (r-before)/bucketCount · (Hi-Lo).
func TestQuantileInterpolation(t *testing.T) {
	s := HistSnapshot{
		Count: 100,
		Buckets: []Bucket{
			{Lo: 1, Hi: 2, Count: 50},
			{Lo: 2, Hi: 4, Count: 30},
			{Lo: 8, Hi: 16, Count: 20},
		},
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1},        // rank 0 → first bucket Lo
		{0.25, 1.5},   // rank 25, halfway through the 50-count bucket
		{0.5, 2},      // rank 50 → exactly exhausts bucket 0 → its Hi
		{0.65, 3},     // rank 65 → (65-50)/30 through [2,4)
		{0.8, 4},      // rank 80 → end of bucket 1
		{0.9, 12},     // rank 90 → (90-80)/20 through [8,16)
		{0.95, 14},    // rank 95 → 3/4 through [8,16)
		{1, 16},       // rank 100 → last bucket Hi
		{0.26, 1.52},  // fractional ranks interpolate linearly
		{0.255, 1.51}, // p50-adjacent quantiles stay distinguishable
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// The motivating regression: nearby tail quantiles of a distribution
	// concentrated in one bucket must not collapse to a single value.
	p50, p95, p99 := s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99)
	if p50 == p95 || p95 == p99 {
		t.Fatalf("quantiles collapsed: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("net.server.requests")
	h := r.Histogram("net.server.op_ns")
	c.Add(10)
	h.Observe(100)
	prev := r.Snapshot()
	c.Add(5)
	h.Observe(200)
	cur := r.Snapshot()
	d := cur.Delta(prev)
	if d.Counters["net.server.requests"] != 5 {
		t.Fatalf("delta counter = %d, want 5", d.Counters["net.server.requests"])
	}
	if d.Histograms["net.server.op_ns"].Count != 1 {
		t.Fatalf("delta hist count = %d, want 1", d.Histograms["net.server.op_ns"].Count)
	}
	if d.TakenAtNs != cur.TakenAtNs {
		t.Fatalf("delta TakenAtNs = %d, want %d", d.TakenAtNs, cur.TakenAtNs)
	}
	if d.IntervalNs != cur.TakenAtNs-prev.TakenAtNs {
		t.Fatalf("IntervalNs = %d, want %d", d.IntervalNs, cur.TakenAtNs-prev.TakenAtNs)
	}
	if sec := d.Seconds(); math.Abs(sec-float64(d.IntervalNs)/1e9) > 1e-12 {
		t.Fatalf("Seconds() = %v", sec)
	}
	if d.IntervalNs > 0 {
		want := float64(5) / d.Seconds()
		if got := d.Rate("net.server.requests"); math.Abs(got-want) > 1e-6 {
			t.Fatalf("Rate = %v, want %v", got, want)
		}
	}
}

func TestSnapshotDeltaCounterReset(t *testing.T) {
	// The serving process restarted between polls: current < previous. Delta
	// must clamp to the current value, not underflow, so a dashboard shows a
	// dip rather than 2^64 ops/s.
	prev := Snapshot{
		TakenAtNs: 1000,
		Counters:  map[string]uint64{"net.server.requests": 100},
		Histograms: map[string]HistSnapshot{
			"net.server.op_ns": {Count: 100, Sum: 5000, Buckets: []Bucket{{Lo: 1, Hi: 2, Count: 100}}},
		},
	}
	cur := Snapshot{
		TakenAtNs: 2000,
		Counters:  map[string]uint64{"net.server.requests": 7},
		Histograms: map[string]HistSnapshot{
			"net.server.op_ns": {Count: 7, Sum: 300, Buckets: []Bucket{{Lo: 1, Hi: 2, Count: 7}}},
		},
	}
	d := cur.Delta(prev)
	if d.Counters["net.server.requests"] != 7 {
		t.Fatalf("reset counter delta = %d, want clamped 7", d.Counters["net.server.requests"])
	}
	if d.Histograms["net.server.op_ns"].Count != 7 {
		t.Fatalf("reset hist delta = %d, want pass-through 7", d.Histograms["net.server.op_ns"].Count)
	}
	if d.IntervalNs != 1000 {
		t.Fatalf("IntervalNs = %d, want 1000", d.IntervalNs)
	}
}

func TestCheckName(t *testing.T) {
	good := []struct {
		name string
		hist bool
	}{
		{"flash.program_ops", false},
		{"net.server.op_ns", true},
		{"difs.repair_bytes", true},
		{"flash.rber_frac", true},
		{"core.capacity_frac", false},
		{"ssd.read_latency_ns", true},
	}
	for _, c := range good {
		if err := CheckName(c.name, c.hist); err != nil {
			t.Errorf("CheckName(%q, %v) = %v, want nil", c.name, c.hist, err)
		}
	}
	bad := []struct {
		name string
		hist bool
	}{
		{"plain", false},             // no layer
		{"a.b.c.d", false},           // too many segments
		{"Net.server", false},        // uppercase
		{"net.op-latency", false},    // dash
		{"net._x", false},            // leading underscore
		{"net.", false},              // empty segment
		{"net.server.latency", true}, // histogram without unit suffix
		{"flash.rber", true},         // the old straggler
	}
	for _, c := range bad {
		if err := CheckName(c.name, c.hist); err == nil {
			t.Errorf("CheckName(%q, %v) = nil, want error", c.name, c.hist)
		}
	}
}

func TestStrictNamesRejectAtCreation(t *testing.T) {
	defer strictNames.Store(strictNames.Swap(true))
	r := NewRegistry()
	// Conforming names still work.
	r.Counter("net.server.requests").Inc()
	r.Histogram("net.server.op_ns").Observe(1)
	mustPanic := func(desc string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: want panic under strict names", desc)
			}
		}()
		fn()
	}
	mustPanic("counter without layer", func() { r.Counter("plain") })
	mustPanic("histogram without unit suffix", func() { r.Histogram("net.latency") })
	mustPanic("uppercase gauge", func() { r.Gauge("Net.pending") })
}

func TestLayerGrouping(t *testing.T) {
	cases := map[string]string{
		"flash.program_ops": "flash",
		"difs.x.y":          "difs",
		"plain":             "other",
	}
	for name, want := range cases {
		if got := Layer(name); got != want {
			t.Errorf("Layer(%q) = %q, want %q", name, got, want)
		}
	}
}
