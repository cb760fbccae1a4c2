package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"salamander/internal/blockdev"
	"salamander/internal/core"
	"salamander/internal/difs"
	"salamander/internal/faultinject"
	"salamander/internal/flash"
	"salamander/internal/rber"
	"salamander/internal/salnet"
	"salamander/internal/sim"
	"salamander/internal/ssd"
	"salamander/internal/telemetry"
)

// promSample is one parsed exposition line: name{labels} value.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// parsePrometheus is a strict parser for the text exposition format: every
// line must be a comment (# TYPE / # HELP), blank, or a sample whose name,
// labels, and value all parse. It returns samples plus the declared types.
func parsePrometheus(t *testing.T, r io.Reader) ([]promSample, map[string]string) {
	t.Helper()
	var samples []promSample
	types := map[string]string{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		txt := sc.Text()
		if txt == "" {
			continue
		}
		if strings.HasPrefix(txt, "#") {
			fields := strings.Fields(txt)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				if !promNameRe.MatchString(fields[2]) {
					t.Fatalf("line %d: bad metric name in TYPE: %q", line, fields[2])
				}
				types[fields[2]] = fields[3]
			}
			continue
		}
		// name{labels} value  |  name value
		rest := txt
		var s promSample
		s.labels = map[string]string{}
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			s.name = rest[:i]
			j := strings.IndexByte(rest, '}')
			if j < i {
				t.Fatalf("line %d: unbalanced braces: %q", line, txt)
			}
			for _, kv := range strings.Split(rest[i+1:j], ",") {
				m := promLabelRe.FindStringSubmatch(kv)
				if m == nil {
					t.Fatalf("line %d: bad label %q", line, kv)
				}
				s.labels[m[1]] = m[2]
			}
			rest = strings.TrimSpace(rest[j+1:])
		} else {
			fields := strings.Fields(rest)
			if len(fields) != 2 {
				t.Fatalf("line %d: want 'name value', got %q", line, txt)
			}
			s.name, rest = fields[0], fields[1]
		}
		if !promNameRe.MatchString(s.name) {
			t.Fatalf("line %d: bad metric name %q", line, s.name)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil && strings.TrimSpace(rest) != "+Inf" {
			t.Fatalf("line %d: bad value in %q: %v", line, txt, err)
		}
		s.value = v
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples, types
}

func findSample(samples []promSample, name string, labels map[string]string) (promSample, bool) {
	for _, s := range samples {
		if s.name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s, true
		}
	}
	return promSample{}, false
}

// TestMetricsPrometheusText checks /metrics is valid Prometheus text: every
// line parses, known counters carry their registry values, histograms expose
// monotonic cumulative buckets whose +Inf equals _count, and the process
// self-metrics are present.
func TestMetricsPrometheusText(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("net.server.requests").Add(42)
	reg.Gauge("core.capacity_frac").Set(0.875)
	h := reg.Histogram("net.server.op_ns")
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1e6)
	}

	srv := httptest.NewServer(NewHandler(Config{Registry: reg}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	samples, types := parsePrometheus(t, resp.Body)

	if s, ok := findSample(samples, "sal_net_server_requests", nil); !ok || s.value != 42 {
		t.Fatalf("sal_net_server_requests = %+v (found=%v), want 42", s, ok)
	}
	if types["sal_net_server_requests"] != "counter" {
		t.Fatalf("requests TYPE = %q, want counter", types["sal_net_server_requests"])
	}
	if s, ok := findSample(samples, "sal_core_capacity_frac", nil); !ok || s.value != 0.875 {
		t.Fatalf("sal_core_capacity_frac = %+v (found=%v), want 0.875", s, ok)
	}
	if types["sal_net_server_op_ns"] != "histogram" {
		t.Fatalf("op_ns TYPE = %q, want histogram", types["sal_net_server_op_ns"])
	}

	// Histogram: cumulative buckets must be non-decreasing and end at +Inf ==
	// _count == 110; _sum matches the observations.
	var cum float64 = -1
	var infVal float64
	for _, s := range samples {
		if s.name != "sal_net_server_op_ns_bucket" {
			continue
		}
		if s.value < cum {
			t.Fatalf("bucket le=%q value %v decreased from %v", s.labels["le"], s.value, cum)
		}
		cum = s.value
		if s.labels["le"] == "+Inf" {
			infVal = s.value
		} else if _, err := strconv.ParseFloat(s.labels["le"], 64); err != nil {
			t.Fatalf("bucket le=%q not a float: %v", s.labels["le"], err)
		}
	}
	if infVal != 110 {
		t.Fatalf("+Inf bucket = %v, want 110", infVal)
	}
	cnt, ok := findSample(samples, "sal_net_server_op_ns_count", nil)
	if !ok || cnt.value != 110 {
		t.Fatalf("_count = %+v (found=%v), want 110", cnt, ok)
	}
	sum, ok := findSample(samples, "sal_net_server_op_ns_sum", nil)
	if !ok || sum.value != 100*1000+10*1e6 {
		t.Fatalf("_sum = %+v (found=%v), want %v", sum, ok, 100*1000+10*1e6)
	}

	for _, name := range []string{"sal_process_uptime_seconds", "sal_process_goroutines", "sal_process_heap_bytes"} {
		if s, ok := findSample(samples, name, nil); !ok || s.value <= 0 {
			t.Fatalf("self-metric %s = %+v (found=%v), want > 0", name, s, ok)
		}
	}
}

// TestMetricsJSON checks the ?format=json view is the Snapshot wire format
// cmd/salmon -live consumes, stamped for interval deltas.
func TestMetricsJSON(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("net.server.requests").Add(7)
	srv := httptest.NewServer(NewHandler(Config{Registry: reg}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["net.server.requests"] != 7 {
		t.Fatalf("counter = %d, want 7", snap.Counters["net.server.requests"])
	}
	if snap.TakenAtNs == 0 {
		t.Fatal("snapshot not stamped with TakenAtNs")
	}
}

// TestProbesAndPprofGate checks /healthz always answers, /readyz follows the
// Ready hook, and /debug/pprof mounts only behind the flag.
func TestProbesAndPprofGate(t *testing.T) {
	ready := true
	cfg := Config{Ready: func() bool { return ready }}
	srv := httptest.NewServer(NewHandler(cfg))
	defer srv.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != 200 {
		t.Fatalf("/healthz = %d", got)
	}
	if got := get("/readyz"); got != 200 {
		t.Fatalf("/readyz while ready = %d", got)
	}
	ready = false
	if got := get("/readyz"); got != 503 {
		t.Fatalf("/readyz while not ready = %d, want 503", got)
	}
	if got := get("/healthz"); got != 200 {
		t.Fatalf("/healthz must not follow readiness, got %d", got)
	}
	if got := get("/debug/pprof/"); got != 404 {
		t.Fatalf("/debug/pprof without flag = %d, want 404", got)
	}

	psrv := httptest.NewServer(NewHandler(Config{Pprof: true}))
	defer psrv.Close()
	resp, err := http.Get(psrv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/pprof with flag = %d, want 200", resp.StatusCode)
	}
}

// TestReadyzDrainAware is the drain-lifecycle integration test: /readyz
// serves 200 while the salnet server accepts traffic, flips to 503 the
// moment a graceful drain begins — while an in-flight request is still being
// served — and that request still completes successfully.
func TestReadyzDrainAware(t *testing.T) {
	cfg := difs.DefaultConfig()
	cfg.ChunkOPages = 4
	cluster, err := difs.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster.AddNode(blockdev.NewMemDevice(4, 256))
	cluster.AddNode(blockdev.NewMemDevice(4, 256))
	cluster.AddNode(blockdev.NewMemDevice(4, 256))

	fr := faultinject.New(3)
	srv := salnet.NewServer(cluster, salnet.ServerConfig{
		InjectedLatency: 400 * time.Millisecond,
	})
	srv.InjectFaults(fr)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	ops := httptest.NewServer(NewHandler(Config{
		Ready: func() bool { return !srv.Draining() },
	}))
	defer ops.Close()
	readyz := func() int {
		resp, err := http.Get(ops.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := readyz(); got != 200 {
		t.Fatalf("/readyz while serving = %d", got)
	}

	// Hold one request in flight via injected latency, then start the drain.
	if err := fr.Arm("net.resp.slow", faultinject.Plan{Prob: 1}); err != nil {
		t.Fatal(err)
	}
	cl, err := salnet.Dial(salnet.ClientConfig{Addr: addr.String()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	var putErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		putErr = cl.Put(context.Background(), "inflight", []byte("payload"))
	}()
	time.Sleep(100 * time.Millisecond) // let the put be admitted to a worker

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- srv.Shutdown(ctx)
	}()

	// Readiness must flip before the drain completes: poll while the put is
	// still in flight (it sleeps 400ms; the drain can't finish before it).
	flipped := false
	for i := 0; i < 50; i++ {
		if readyz() == 503 {
			flipped = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !flipped {
		t.Fatal("/readyz never flipped to 503 during drain")
	}
	select {
	case err := <-drainDone:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
	wg.Wait()
	if putErr != nil {
		t.Fatalf("in-flight put during drain failed: %v", putErr)
	}
	if got := readyz(); got != 503 {
		t.Fatalf("/readyz after drain = %d, want 503", got)
	}
}

// TestWearReportMovesUnderInjectedWear drives a baseline device with real
// ECC under read disturb and injected program failures, and checks the /wear
// report's per-device corrections and suspect/retired block counts move.
func TestWearReportMovesUnderInjectedWear(t *testing.T) {
	cfg := ssd.DefaultConfig()
	cfg.Flash.Geometry = flash.Geometry{
		Channels:      2,
		BlocksPerChan: 8,
		PagesPerBlock: 8,
		PageSize:      rber.FPageSize,
		SpareSize:     rber.SpareSize,
	}
	cfg.Flash.StoreData = true
	cfg.RealECC = true
	cfg.Flash.EnduranceCV = 0
	cfg.Flash.PageCV = 0
	cfg.Flash.ReadDisturbRBER = 5e-5 // bit flips ECC corrects, not kills
	cfg.BrickThreshold = 0.5
	cfg.MaxReadRetries = 2
	dev, err := ssd.New(cfg, sim.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	refs := []DeviceRef{{Node: 0, Device: 0, Dev: dev}}

	before := BuildWearReport(refs, nil)
	if n := len(before.Devices); n != 1 {
		t.Fatalf("device entries = %d, want 1", n)
	}
	if before.Totals.Corrections != 0 || before.Totals.SuspectBlocks+before.Totals.RetiredBlocks != 0 {
		t.Fatalf("fresh device reports wear: %+v", before.Totals)
	}

	fr := faultinject.New(11)
	dev.InjectFaults(fr)
	if err := fr.Arm("flash.program.fail", faultinject.Plan{Prob: 0.05, MaxFires: 2}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockdev.OPageSize)
	lbas := dev.Minidisks()[0].LBAs / 2
	for round := 0; round < 3; round++ {
		for lba := 0; lba < lbas; lba++ {
			if err := dev.Write(0, lba, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := dev.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 800; i++ {
		_ = dev.Read(0, i%lbas, buf)
	}

	// Read the moved report through the HTTP handler, like an operator would.
	srv := httptest.NewServer(NewHandler(Config{Devices: refs}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/wear")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var after WearReport
	if err := json.NewDecoder(resp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	if after.TakenAtNs == 0 {
		t.Fatal("report not stamped")
	}
	d := after.Devices[0]
	if d.Kind != "ssd" {
		t.Fatalf("device kind = %q", d.Kind)
	}
	if d.Corrections == 0 {
		t.Fatal("corrections did not move under read disturb")
	}
	if fr.Site("flash.program.fail").Fires() == 0 {
		t.Fatal("no program failures injected; wear assertion is vacuous")
	}
	if d.SuspectBlocks+d.RetiredBlocks == 0 {
		t.Fatal("suspect/retired blocks did not move under injected program failures")
	}
	if d.MeanPEC <= 0 || d.RBEREstimate <= 0 {
		t.Fatalf("wear estimates missing: meanPEC=%v rber=%v", d.MeanPEC, d.RBEREstimate)
	}
	if after.Totals.Corrections != d.Corrections {
		t.Fatalf("totals %d != device %d", after.Totals.Corrections, d.Corrections)
	}
}

// TestWearReportClusterState checks the distributed layer's contribution:
// node crash and repair backlog appear in the report.
func TestWearReportClusterState(t *testing.T) {
	cfg := difs.DefaultConfig()
	cfg.ChunkOPages = 4
	cluster, err := difs.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var refs []DeviceRef
	for i := 0; i < 3; i++ {
		d := blockdev.NewMemDevice(4, 256)
		cluster.AddNode(d)
		refs = append(refs, DeviceRef{Node: i, Device: 0, Dev: d})
	}
	if err := cluster.Put("obj", bytes.Repeat([]byte("x"), 64*1024)); err != nil {
		t.Fatal(err)
	}
	cluster.CrashNode(1)

	rep := BuildWearReport(refs, cluster)
	if len(rep.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(rep.Nodes))
	}
	if !rep.Nodes[1].Down || rep.Totals.NodesDown != 1 {
		t.Fatalf("crashed node not reported down: %+v", rep.Nodes[1])
	}
	if rep.RepairBacklog == 0 {
		t.Fatal("repair backlog empty after a node crash with stored data")
	}
	if rep.Devices[0].Kind != "mem" || rep.Devices[0].LiveMinidisks != 4 {
		t.Fatalf("mem device wear = %+v", rep.Devices[0])
	}
}

// TestFleetNameConformance instruments the full stack — flash, FTL devices,
// cluster, server, client, failpoints — into one registry, then validates
// every name against the documented convention.
func TestFleetNameConformance(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(64)

	ccfg := core.DefaultConfig()
	ccfg.Flash.Geometry = flash.Geometry{
		Channels: 2, BlocksPerChan: 8, PagesPerBlock: 8,
		PageSize: rber.FPageSize, SpareSize: rber.SpareSize,
	}
	ccfg.Flash.StoreData = true
	ccfg.RealECC = false
	ccfg.MSizeOPages = 16
	cdev, err := core.New(ccfg, sim.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	cdev.Instrument(reg, tr)

	scfg := ssd.DefaultConfig()
	scfg.Flash.Geometry = ccfg.Flash.Geometry
	sdev, err := ssd.New(scfg, sim.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	sdev.Instrument(reg, tr)

	dcfg := difs.DefaultConfig()
	dcfg.ChunkOPages = 4
	cluster, err := difs.NewCluster(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster.Instrument(reg, tr)
	cluster.AddNode(blockdev.NewMemDevice(2, 64))
	cluster.AddNode(blockdev.NewMemDevice(2, 64))
	cluster.AddNode(blockdev.NewMemDevice(2, 64))

	srv := salnet.NewServer(cluster, salnet.ServerConfig{})
	srv.Instrument(reg, tr)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	fr := faultinject.New(1)
	fr.Instrument(reg, tr)

	cl, err := salnet.Dial(salnet.ClientConfig{Addr: addr.String()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Instrument(reg, tr)
	if err := cl.Put(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	check := func(names map[string]bool, hist bool) {
		for n := range names {
			if err := telemetry.CheckName(n, hist); err != nil {
				t.Errorf("non-conforming metric: %v", err)
			}
		}
	}
	cn, gn, hn := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for n := range snap.Counters {
		cn[n] = true
	}
	for n := range snap.Gauges {
		gn[n] = true
	}
	for n := range snap.Histograms {
		hn[n] = true
	}
	if len(cn)+len(gn)+len(hn) < 30 {
		t.Fatalf("only %d instruments registered; stack not fully instrumented", len(cn)+len(gn)+len(hn))
	}
	check(cn, false)
	check(gn, false)
	check(hn, true)

	// And the exposition of the full fleet registry stays parseable.
	var buf bytes.Buffer
	WritePrometheus(&buf, snap)
	samples, _ := parsePrometheus(t, &buf)
	if len(samples) == 0 {
		t.Fatal("empty exposition for instrumented fleet")
	}
}

var _ = fmt.Sprintf // keep fmt for debug edits
