package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"

	"salamander/internal/blockdev"
	"salamander/internal/difs"
	"salamander/internal/telemetry"
)

// The traced run: a fixed op count from the seeded stream, one connection,
// one op in flight, so counts repeat exactly and every device or store span
// falls inside exactly one client call. Passes:
//
//	net      through salnet, wrappers on: the per-layer timings and counts
//	direct   same ops straight into difs, fresh identical fleet: salnet's share
//	off      net without wrappers: the tracing overhead
//	analytic (worn fleets) net with RealECC off: the ECC's share
const (
	passNet      = "net"
	passDirect   = "direct"
	passOff      = "off"
	passAnalytic = "analytic"
)

// attributed are the registry counters read after every traced op, so each
// increment is charged to the GET or PUT that caused it (GC reads flash
// during PUTs; a whole-pass ratio would bill that to GETs).
var attributed = []string{
	"core.flash_reads", "core.flash_writes", "core.gc_relocations",
	"core.ecc_corrections", "core.ecc_corrected_bits", "core.ecc_erasure_decodes",
	"core.read_retries", "core.uncorrectable",
	"flash.read_ops", "flash.program_ops", "flash.erase_ops", "flash.injected_bit_flips",
}

// clusterKV sends ops straight into difs, the way salnet's workers do.
type clusterKV struct{ c *difs.Cluster }

func (k clusterKV) Put(ctx context.Context, key string, data []byte) error {
	return k.c.ReplaceCtx(ctx, key, data)
}
func (k clusterKV) Get(ctx context.Context, key string) ([]byte, error) {
	return k.c.GetCtx(ctx, key)
}

// opStats summarizes the roots of one op type in a pass.
type opStats struct {
	rootUs, selfUs []float64
	totalNs        int64 // sum of root durations
	devNs, storeNs int64 // root time covered by device / store spans
	putBytes       int64 // bytes handed to store puts
	// counts are the events charged to these roots, by name: descendant
	// spans ("blockdev.read") and attributed registry counters
	// ("core.flash_reads").
	counts map[string]uint64
}

func (o *opStats) roots() float64 { return float64(len(o.rootUs)) }

// perOp is how often the named events happened per root.
func (o *opStats) perOp(names ...string) float64 {
	var n uint64
	for _, name := range names {
		n += o.counts[name]
	}
	return float64(n) / o.roots()
}

// passResult is everything one traced pass measured.
type passResult struct {
	get, put       opStats
	durUs, selfUs  map[string][]float64 // per device/store span name
	backgroundNs   int64                // device/store span time outside every root
	layeredNs      int64                // all device/store span time
	elapsedNs      int64                // sum of root durations
	snap           telemetry.Snapshot   // registry delta over the pass
	wear           []blockdev.WearInfo
	pendingRepairs int
	spans          []span
}

// pass is one traced pass in progress: a fresh preloaded fleet and the
// workload's traced op stream, driven a slice at a time so that two passes
// whose difference matters can alternate and share the machine's moods.
type pass struct {
	name    string
	sp      spec
	res     *result
	dir     string
	f       *fleet
	rec     *recorder
	streams []*opStream
	cl      kv
	getKind spanKind
	putKind spanKind

	counters []*telemetry.Counter
	prev     []uint64
	snap0    telemetry.Snapshot
	tally    tally
	out      *passResult
	buf      []byte
	want     []byte
}

// openPass builds and preloads the pass's fleet. n keeps the data dirs of
// passes that are open together apart.
func (r *result) openPass(sp spec, o runOpts, name string, n int) (*pass, error) {
	p := &pass{name: name, sp: sp, res: r, rec: newRecorder(sp.traceOps), out: &passResult{},
		getKind: salnetGet, putKind: salnetPut,
		buf: make([]byte, objectSize), want: make([]byte, objectSize)}
	var err error
	if p.dir, err = freshDir(sp, o.dataRoot, n); err != nil {
		return nil, err
	}
	cfg := sp.fleetConfig(p.dir)
	cfg.conns = 1
	cfg.analytic = name == passAnalytic
	if name != passOff {
		cfg.rec = p.rec
	}
	// One stream owns every key, and the preload too keeps one op in flight:
	// placement and flash layout depend on arrival order, and the pass's
	// exact counts on them.
	var pre tally
	if p.f, p.streams, pre, err = setUp(sp, o.seed, cfg, 1, 1); err != nil {
		os.RemoveAll(p.dir)
		return nil, err
	}
	r.count(pre)
	p.cl = p.f.client
	if name == passDirect {
		p.cl, p.getKind, p.putKind = clusterKV{p.f.cluster}, difsGet, difsPut
	}
	p.counters = make([]*telemetry.Counter, len(attributed))
	p.prev = make([]uint64, len(attributed))
	for i, c := range attributed {
		p.counters[i] = p.f.reg.Counter(c)
		p.prev[i] = p.counters[i].Value()
	}
	p.out.get.counts, p.out.put.counts = map[string]uint64{}, map[string]uint64{}
	p.snap0 = p.f.reg.Snapshot()
	return p, nil
}

// run drives the next n ops of the stream, one in flight.
func (p *pass) run(n int) {
	ctx, s := context.Background(), p.streams[0]
	p.rec.on.Store(true)
	for i := 0; i < n; i++ {
		rq := s.next()
		kind, st := p.putKind, &p.out.put
		if rq.get {
			kind, st = p.getKind, &p.out.get
		}
		t0 := p.rec.now()
		s.doOp(ctx, p.cl, rq, p.buf, p.want, &p.tally)
		p.rec.add(kind, -1, t0, 0)
		for c := range p.counters {
			if v := p.counters[c].Value(); v != p.prev[c] {
				st.counts[attributed[c]] += v - p.prev[c]
				p.prev[c] = v
			}
		}
	}
	p.rec.on.Store(false)
}

// finish closes the fleet, runs its correctness gates and analyzes the spans.
func (p *pass) finish(layers *metricSet) (*passResult, error) {
	defer os.RemoveAll(p.dir)
	pr, f := p.out, p.f
	p.res.count(p.tally)
	pr.snap = f.reg.Snapshot().Delta(p.snap0)
	pr.pendingRepairs = f.cluster.PendingRepairs()
	for _, d := range f.devs {
		pr.wear = append(pr.wear, d.(blockdev.WearReporter).Wear())
	}
	p.res.tearDown(f, p.name+" pass fleet")
	pr.spans = p.rec.spans
	pr.analyze()

	if p.sp.durable && p.name == passNet {
		files, bytes, err := diskUsage(p.dir)
		if err != nil {
			return nil, err
		}
		layers.set("store.files_end", float64(files))
		layers.set("store.disk_bytes_end", float64(bytes))
		p.res.verifyReopen(p.sp, p.dir, p.streams, layers)
	}
	return pr, nil
}

// runPass is a pass run in one piece.
func (r *result) runPass(sp spec, o runOpts, name string, layers *metricSet) (*passResult, error) {
	p, err := r.openPass(sp, o, name, 0)
	if err != nil {
		return nil, err
	}
	p.run(sp.traceOps)
	return p.finish(layers)
}

// analyze attributes the pass's spans and folds them into per-op-type and
// per-span-name statistics.
func (pr *passResult) analyze() {
	spans := pr.spans
	attribute(spans)
	kids := children(spans)
	pr.durUs, pr.selfUs = map[string][]float64{}, map[string][]float64{}
	for i, s := range spans {
		if s.Parent == parentRoot {
			st := &pr.put
			if s.Name.isGet() {
				st = &pr.get
			}
			var devs, stores []int
			for _, k := range kids[i] {
				st.counts[spans[k].Name.String()]++
				if spans[k].Name.isDevice() {
					devs = append(devs, k)
					for _, g := range kids[k] {
						st.counts[spans[g].Name.String()]++
						stores = append(stores, g)
					}
				} else {
					stores = append(stores, k)
				}
			}
			for _, k := range stores {
				if spans[k].Name.isStorePut() {
					st.putBytes += int64(spans[k].Bytes)
				}
			}
			st.rootUs = append(st.rootUs, float64(s.dur())/1e3)
			st.selfUs = append(st.selfUs, float64(selfTime(spans, kids, i))/1e3)
			st.totalNs += s.dur()
			st.devNs += covered(spans, i, devs)
			st.storeNs += covered(spans, i, stores)
			pr.elapsedNs += s.dur()
			continue
		}
		name := s.Name.String()
		pr.durUs[name] = append(pr.durUs[name], float64(s.dur())/1e3)
		pr.selfUs[name] = append(pr.selfUs[name], float64(selfTime(spans, kids, i))/1e3)
		// Nested store spans are already inside their device span's time.
		switch {
		case s.Parent == parentBackground:
			pr.backgroundNs += s.dur()
			pr.layeredNs += s.dur()
		case spans[s.Parent].Parent == parentRoot:
			pr.layeredNs += s.dur()
		}
	}
}

// runTraced runs the traced passes and the direct kernels and fills the
// per-layer metrics. A metric that does not apply to the workload (store on a
// volatile fleet, core on a mem fleet) is left unset.
func runTraced(sp spec, o runOpts, res *result, m *metricSet, spansPath string) error {
	// net and off differ only by the wrappers, and the difference is a few
	// percent — less than a 1 s pass drifts with the scheduler's mood. So the
	// two alternate in slices and meet the same moods.
	const slices = 10
	netPass, err := res.openPass(sp, o, passNet, 0)
	if err != nil {
		return err
	}
	offPass, err := res.openPass(sp, o, passOff, 1)
	if err != nil {
		return err
	}
	for i := 0; i < slices; i++ {
		netPass.run(sp.traceOps / slices)
		offPass.run(sp.traceOps / slices)
	}
	net, err := netPass.finish(m)
	if err != nil {
		return err
	}
	off, err := offPass.finish(m)
	if err != nil {
		return err
	}
	if spansPath != "" {
		if err := dumpSpans(spansPath, net.spans); err != nil {
			return err
		}
	}
	direct, err := res.runPass(sp, o, passDirect, m)
	if err != nil {
		return err
	}

	m.set("trace.overhead_frac", 1-float64(off.elapsedNs)/float64(net.elapsedNs))
	m.set("trace.background_frac", frac(net.backgroundNs, net.layeredNs))

	m.set("salnet.get_us", median(net.get.rootUs))
	m.set("salnet.put_us", median(net.put.rootUs))
	m.set("salnet.self_get_us", median(net.get.rootUs)-median(direct.get.rootUs))
	m.set("salnet.self_put_us", median(net.put.rootUs)-median(direct.put.rootUs))

	m.set("difs.get_us", median(direct.get.rootUs))
	m.set("difs.put_us", median(direct.put.rootUs))
	m.set("difs.self_get_us", median(direct.get.selfUs))
	m.set("difs.self_put_us", median(direct.put.selfUs))
	m.set("difs.dev_reads_per_get", net.get.perOp("blockdev.read"))
	m.set("difs.dev_writes_per_put", net.put.perOp("blockdev.write"))
	m.set("difs.dev_trims_per_put", net.put.perOp("blockdev.trim"))
	m.set("difs.meta_puts_per_put", net.put.perOp("store.meta_put"))
	m.set("difs.pending_repairs_end", float64(net.pendingRepairs))

	for _, call := range []string{"read", "write", "trim"} {
		m.set("blockdev."+call+"_us", median(net.durUs["blockdev."+call]))
	}
	m.set("blockdev.read_self_us", median(net.selfUs["blockdev.read"]))
	m.set("blockdev.write_self_us", median(net.selfUs["blockdev.write"]))
	m.set("blockdev.busy_frac_get", frac(net.get.devNs, net.get.totalNs))
	m.set("blockdev.busy_frac_put", frac(net.put.devNs, net.put.totalNs))

	if sp.durable {
		m.set("store.put_us", median(net.durUs["store.put"]))
		m.set("store.meta_put_us", median(net.durUs["store.meta_put"]))
		m.set("store.delete_us", median(net.durUs["store.delete"]))
		m.set("store.puts_per_put", net.put.perOp("store.put", "store.meta_put"))
		m.set("store.deletes_per_put", net.put.perOp("store.delete", "store.meta_delete"))
		m.set("store.put_bytes_per_user_byte", float64(net.put.putBytes)/(net.put.roots()*objectSize))
		// Any store call at all inside a GET breaks the bypass.
		var storeCalls uint64
		for name, n := range net.get.counts {
			if strings.HasPrefix(name, "store.") {
				storeCalls += n
			}
		}
		m.set("store.gets_per_get", float64(storeCalls)/net.get.roots())
		m.set("store.busy_frac_put", frac(net.put.storeNs, net.put.totalNs))
	}

	if err := wireKernels(m); err != nil {
		return err
	}
	if sp.devices == "core" {
		analytic, err := res.runPass(sp, o, passAnalytic, m)
		if err != nil {
			return err
		}
		coreMetrics(net, analytic, m)
		bits := int(math.Round(m.values["core.ecc_corrected_bits_per_correction"].Value))
		if err := eccKernels(m, max(bits, 1)); err != nil {
			return err
		}
		if err := flashKernels(m, sp.wear); err != nil {
			return err
		}
	}
	return nil
}

// coreMetrics derives the core, flash and ECC-cost metrics of a worn fleet
// from the net pass's attributed registry counters.
func coreMetrics(net, analytic *passResult, m *metricSet) {
	get, put := &net.get, &net.put
	m.set("core.flash_reads_per_get", get.perOp("core.flash_reads"))
	m.set("core.flash_writes_per_put", put.perOp("core.flash_writes"))
	m.set("core.gc_relocations_per_kput", 1e3*put.perOp("core.gc_relocations"))
	m.set("core.ecc_corrections_per_get", get.perOp("core.ecc_corrections"))
	m.set("core.ecc_corrected_bits_per_correction",
		frac(int64(get.counts["core.ecc_corrected_bits"]), int64(get.counts["core.ecc_corrections"])))
	m.set("core.ecc_erasure_decodes_per_get", get.perOp("core.ecc_erasure_decodes"))
	m.set("core.read_retries_per_kget", 1e3*get.perOp("core.read_retries"))
	m.set("core.uncorrectable_per_kget", 1e3*get.perOp("core.uncorrectable"))
	m.set("core.decommissions", float64(net.snap.Counters["core.decommissions"]))
	m.set("core.regenerations", float64(net.snap.Counters["core.regenerations"]))
	var pec, capacity float64
	for _, w := range net.wear {
		pec += w.MeanPEC / float64(len(net.wear))
		capacity += w.CapacityFrac / float64(len(net.wear))
	}
	m.set("core.mean_pec", pec)
	m.set("core.capacity_frac", capacity)
	// The device model's own latencies are virtual time: unit virt_us, never
	// added to a wall-clock figure.
	m.set("core.virt_read_us_p50", virtP50us(net.snap.Histograms["core.host_read_latency_ns"]))
	m.set("core.virt_write_us_p50", virtP50us(net.snap.Histograms["core.host_write_latency_ns"]))

	m.set("flash.injected_bit_flips_per_read",
		frac(int64(net.snap.Counters["flash.injected_bit_flips"]), int64(net.snap.Counters["flash.read_ops"])))
	m.set("flash.erases_per_kput", 1e3*put.perOp("flash.erase_ops"))

	// ECC cost per op: device time per op with the real codec minus the same
	// with the analytic model. Means, not medians x calls: three of four page
	// writes only fill the FTL buffer and the fourth pays the whole encode.
	m.set("ecc.cost_get_us", (float64(get.devNs)/get.roots()-float64(analytic.get.devNs)/analytic.get.roots())/1e3)
	m.set("ecc.cost_put_us", (float64(put.devNs)/put.roots()-float64(analytic.put.devNs)/analytic.put.roots())/1e3)
}

// virtP50us reads a virtual-time histogram's median in µs. The log2 histogram
// keeps zero observations (a write absorbed by the FTL buffer costs no
// virtual time) in its lowest bucket, whose bounds are denormal-small, not 0.
func virtP50us(h telemetry.HistSnapshot) float64 {
	if v := h.Quantile(0.5) / 1e3; v >= 1e-9 {
		return v
	}
	return 0
}

func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func dumpSpans(path string, spans []span) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(fh, spans); err != nil {
		fh.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return fh.Close()
}
