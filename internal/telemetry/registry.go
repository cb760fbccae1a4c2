// Package telemetry is the observability substrate shared by every layer of
// the stack: a zero-dependency, thread-safe Registry of named counters,
// gauges, and log-bucketed histograms, plus a bounded structured event
// Tracer (trace.go). Devices, the FTL, the flash array, and the distributed
// layer all publish into one registry so a tiredness transition in core can
// be correlated with the repair traffic it triggers in diFS — the
// cross-layer view the paper's §4.2/§4.3 claims are about.
//
// Naming convention: metric names are "<layer>.<metric>" — e.g.
// "flash.program_ops", "core.tiredness_transitions", "difs.recovery_bytes" —
// so snapshots can be grouped per layer when rendered.
//
// All mutation paths are lock-free (atomics) after the handle is resolved;
// resolving a handle takes the registry lock once. Hot paths should resolve
// handles at construction time and hold them.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is NOT usable;
// obtain counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable float64.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the number of power-of-two histogram buckets. Bucket i
// covers [2^(i-histBias), 2^(i-histBias+1)); bucket 0 additionally absorbs
// everything at or below 2^-histBias (including zero and negatives), and the
// last bucket absorbs overflow. The span 2^-64..2^64 covers both RBER-scale
// fractions (~1e-10) and nanosecond latencies (~1e9) without configuration.
const (
	histBuckets = 129
	histBias    = 64
)

// Histogram is a log2-bucketed histogram of float64 observations. It is
// lock-free: Observe costs two atomic adds and a CAS loop on the sum.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// bucketIndex maps an observation to its bucket.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	// Frexp: v = frac * 2^exp with frac in [0.5, 1), so floor(log2 v) = exp-1.
	_, exp := math.Frexp(v)
	i := exp - 1 + histBias
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.counts[bucketIndex(v)].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.n.Load(), Sum: h.Sum()}
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		s.Buckets = append(s.Buckets, Bucket{
			Lo:    math.Ldexp(1, i-histBias),
			Hi:    math.Ldexp(1, i-histBias+1),
			Count: c,
		})
	}
	return s
}

// Bucket is one populated histogram bucket: Count observations in [Lo, Hi).
type Bucket struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count uint64  `json:"count"`
}

// HistSnapshot is an immutable view of a histogram.
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the exact mean of the observations.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns an approximate quantile with sub-bucket interpolation:
// the q-th observation's rank is located within its log2 bucket and the
// value is interpolated linearly between the bucket's Lo and Hi, assuming
// observations spread uniformly inside the bucket. This is what lets
// nearby quantiles (p50/p95/p99) of a tight latency distribution remain
// distinguishable instead of collapsing onto one bucket midpoint. The edge
// behavior is pinned:
//
//   - An empty snapshot (Count == 0, or no buckets — possible on a Delta of
//     an idle interval) returns 0.
//   - q outside [0,1] is clamped into the range.
//   - q = 0 returns the first populated bucket's Lo — NOT the true minimum;
//     the bucket floor is all the histogram retains.
//   - q = 1 returns the last populated bucket's Hi — NOT the true maximum,
//     for the same reason.
//   - A single-bucket histogram interpolates across that bucket: Quantile
//     is monotone in q from Lo to Hi rather than pinned at the midpoint.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	cum := uint64(0)
	for _, b := range s.Buckets {
		before := float64(cum)
		cum += b.Count
		if float64(cum) >= target {
			frac := (target - before) / float64(b.Count)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return b.Lo + frac*(b.Hi-b.Lo)
		}
	}
	return s.Buckets[len(s.Buckets)-1].Hi
}

// Registry holds named instruments. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	debugCheckName(name, false)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	debugCheckName(name, false)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	debugCheckName(name, true)
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &Histogram{}
	r.hists[name] = h
	return h
}

// Snapshot is a point-in-time copy of every instrument in a registry. It is
// a plain value: mutating it never affects the live registry, and it
// marshals to JSON directly (the interchange format cmd/salmon reads).
//
// TakenAtNs is the wall-clock capture time (Unix nanoseconds), stamped by
// Registry.Snapshot; IntervalNs is zero on a raw snapshot and set by Delta to
// the span the delta covers — together they make rates first-class (see
// Seconds and Rate). Both are informational: nothing in the deterministic
// render path depends on them.
type Snapshot struct {
	TakenAtNs  int64                   `json:"taken_at_ns,omitempty"`
	IntervalNs int64                   `json:"interval_ns,omitempty"`
	Counters   map[string]uint64       `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry. The copy is cheap: one pass over the
// instrument maps with atomic loads, no locking of the mutation paths.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		TakenAtNs:  time.Now().UnixNano(),
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Diff returns this snapshot minus prev: counter deltas, histogram
// count/sum/bucket deltas, and current gauge values (gauges are levels, not
// flows — a delta would be meaningless). Instruments absent from prev pass
// through unchanged. Diff assumes prev was taken earlier in the same process:
// a counter that shrank (a restart between the two snapshots) underflows.
// Delta is the reset-tolerant variant for polling a live server.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	return s.subtract(prev, false)
}

// Delta returns the activity in the interval (prev, s]: counter and histogram
// deltas like Diff, plus the interval metadata that makes rates first-class —
// out.IntervalNs = s.TakenAtNs - prev.TakenAtNs (when both are stamped) and
// out.TakenAtNs = s.TakenAtNs. Unlike Diff, Delta tolerates counter resets:
// an instrument whose value shrank since prev (the serving process restarted
// between polls) contributes its current value rather than an underflowed
// uint64, so a live dashboard shows a restart as a dip, not a spike of 2^64.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := s.subtract(prev, true)
	out.TakenAtNs = s.TakenAtNs
	if s.TakenAtNs > 0 && prev.TakenAtNs > 0 && s.TakenAtNs > prev.TakenAtNs {
		out.IntervalNs = s.TakenAtNs - prev.TakenAtNs
	}
	return out
}

// Seconds returns the delta interval in seconds (0 when unknown — a raw
// snapshot, or a Delta against an unstamped snapshot).
func (s Snapshot) Seconds() float64 {
	return float64(s.IntervalNs) / 1e9
}

// Rate returns the named counter's per-second rate over the snapshot's
// interval. Meaningful only on a Delta result; returns 0 when the interval is
// unknown.
func (s Snapshot) Rate(name string) float64 {
	sec := s.Seconds()
	if sec <= 0 {
		return 0
	}
	return float64(s.Counters[name]) / sec
}

func (s Snapshot) subtract(prev Snapshot, resetAware bool) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		pv := prev.Counters[name]
		if resetAware && pv > v {
			pv = 0
		}
		out.Counters[name] = v - pv
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		ph, ok := prev.Histograms[name]
		if !ok || (resetAware && ph.Count > h.Count) {
			out.Histograms[name] = h
			continue
		}
		prevCounts := map[float64]uint64{}
		for _, b := range ph.Buckets {
			prevCounts[b.Lo] = b.Count
		}
		d := HistSnapshot{Count: h.Count - ph.Count, Sum: h.Sum - ph.Sum}
		for _, b := range h.Buckets {
			if c := b.Count - prevCounts[b.Lo]; c > 0 {
				d.Buckets = append(d.Buckets, Bucket{Lo: b.Lo, Hi: b.Hi, Count: c})
			}
		}
		out.Histograms[name] = d
	}
	return out
}

// Names returns the sorted union of instrument names in the snapshot.
func (s Snapshot) Names() []string {
	seen := map[string]bool{}
	for n := range s.Counters {
		seen[n] = true
	}
	for n := range s.Gauges {
		seen[n] = true
	}
	for n := range s.Histograms {
		seen[n] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Layer returns the "<layer>." prefix of a metric name, or "other" when the
// name has no dot — the grouping key snapshots are rendered by.
func Layer(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return "other"
}
