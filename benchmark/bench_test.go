package main

import (
	"bytes"
	"os"
	"reflect"
	"testing"
	"time"
)

func opsOf(sp spec, seed uint64, id, n int) []op {
	s := newOpStream(sp, seed, id, sp.keys)
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// Same seed, same inputs; another seed (or stream), other inputs.
func TestOpStreamIsAFunctionOfSeed(t *testing.T) {
	for _, sp := range workloads {
		a, b := opsOf(sp, 42, 0, 500), opsOf(sp, 42, 0, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 42 gave two different op streams", sp.name)
		}
		if reflect.DeepEqual(a, opsOf(sp, 43, 0, 500)) {
			t.Errorf("%s: seeds 42 and 43 gave the same op stream", sp.name)
		}
		if reflect.DeepEqual(a, opsOf(sp, 42, 1, 500)) {
			t.Errorf("%s: streams 0 and 1 of one seed gave the same ops", sp.name)
		}
		gets := 0
		for _, o := range a {
			if o.get {
				gets++
			}
			if o.key < 0 || o.key >= sp.keys {
				t.Fatalf("%s: key %d outside the %d preloaded keys", sp.name, o.key, sp.keys)
			}
		}
		if got := float64(gets) / 500; got < sp.readFrac-0.1 || got > sp.readFrac+0.1 {
			t.Errorf("%s: %.2f of ops are GETs, want about %.2f", sp.name, got, sp.readFrac)
		}
	}
}

func TestFillIsAFunctionOfItsArguments(t *testing.T) {
	a, b := make([]byte, objectSize), make([]byte, objectSize)
	fill(a, 1, 2, 3, 4)
	fill(b, 1, 2, 3, 4)
	if !bytes.Equal(a, b) {
		t.Fatal("fill is not deterministic")
	}
	for i, args := range [][4]uint64{{9, 2, 3, 4}, {1, 9, 3, 4}, {1, 2, 9, 4}, {1, 2, 3, 9}} {
		fill(b, args[0], int(args[1]), int(args[2]), uint32(args[3]))
		if bytes.Equal(a, b) {
			t.Errorf("changing argument %d left the content unchanged", i)
		}
	}
}

// testDataRoot makes a data root under the package directory: t.TempDir may
// sit on tmpfs, which durable_put refuses.
func testDataRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp(".", ".bench_data-test-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

// exactOf picks the exact-count metrics out of a traced run.
func exactOf(res *result) map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayer {
		if v, ok := res.PerLayer[d.name]; ok && d.exact {
			out[d.name] = v.Value
		}
	}
	return out
}

// The smoke test: every workload at -quick size, untraced window and traced
// passes, with every correctness gate on. worn_read runs twice to show that a
// seed fixes the exact-count metrics of the traced run.
func TestQuickRunOfEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads for about 10 s")
	}
	root := testDataRoot(t)
	o := runOpts{seed: 3, window: 300 * time.Millisecond, dataRoot: root, quick: true}
	for _, full := range workloads {
		sp := full.quick()
		if sp.durable && refuseRAMFS(root) != nil {
			t.Logf("skipping %s: %v", sp.name, refuseRAMFS(root))
			continue
		}
		t0 := time.Now()
		res, err := runWorkload(sp, o, true, "")
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		t.Logf("%s: %d ops in %v", sp.name, res.Attempted, time.Since(t0).Round(time.Millisecond))
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: correct=%v failed=%d attempted=%d violations=%v", sp.name, res.Correct, res.Failed, res.Attempted, res.Violations)
		}
		for _, d := range endToEnd {
			if v, ok := res.EndToEnd[d.name]; !ok || v.Value <= 0 || v.Unit != d.unit {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v): the contract wants every one, never 0", sp.name, d.name, v, ok)
			}
		}
		checkLayers(t, sp, res)
		if sp.name == "worn_read" {
			again := &result{Samples: map[string]int{}}
			layers := newMetricSet(perLayer)
			if err := runTraced(sp, o, again, layers, ""); err != nil {
				t.Fatal(err)
			}
			again.PerLayer = layers.values
			if a, b := exactOf(res), exactOf(again); !reflect.DeepEqual(a, b) || len(a) < 20 {
				t.Errorf("two traced runs of seed %d disagree on exact counts (or report too few):\n%v\n%v", o.seed, a, b)
			}
		}
	}
	if left, _ := os.ReadDir(root); len(left) != 0 {
		t.Errorf("runs left %d entries under the data root", len(left))
	}
}

// replicas is difs.DefaultConfig's ReplicationFactor, which salsrv keeps.
const replicas = 3

// checkLayers asserts what each workload is built to isolate, on the counts
// that do not depend on the machine.
func checkLayers(t *testing.T, sp spec, res *result) {
	t.Helper()
	want := map[string]float64{
		"difs.dev_reads_per_get":  chunkPages,
		"difs.dev_writes_per_put": replicas * chunkPages,
		"difs.dev_trims_per_put":  replicas * chunkPages,
		"trace.background_frac":   0,
	}
	absent := []string{"store.puts_per_put", "core.flash_reads_per_get", "ecc.encode_us_per_opage.L0"}
	switch {
	case sp.durable:
		// 12 page files and the manifest twice (commit, then old-chunk drop).
		want["store.puts_per_put"] = replicas*chunkPages + 2
		want["store.deletes_per_put"] = replicas * chunkPages
		want["store.gets_per_get"] = 0
		want["difs.recover_objects"] = float64(sp.keys)
		absent = absent[1:]
	case sp.devices == "core":
		absent = absent[:1]
		for _, name := range []string{"core.flash_reads_per_get", "core.ecc_corrections_per_get", "ecc.cost_get_us", "ecc.decode_us_per_opage.L2", "flash.read_us_per_page", "core.virt_read_us_p50"} {
			if res.PerLayer[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0 on worn flash", sp.name, name, res.PerLayer[name].Value)
			}
		}
	}
	for name, w := range want {
		if v, ok := res.PerLayer[name]; !ok || v.Value != w {
			t.Errorf("%s: %s = %v (present %v), want %v", sp.name, name, v.Value, ok, w)
		}
	}
	for _, name := range absent {
		if v, ok := res.PerLayer[name]; ok {
			t.Errorf("%s: %s = %v reported for a fleet without that layer", sp.name, name, v.Value)
		}
	}
	for _, name := range []string{"salnet.get_us", "salnet.put_us", "difs.get_us", "difs.put_us", "blockdev.read_us", "wire.encode_ns", "proc.allocs_per_op"} {
		if res.PerLayer[name].Value <= 0 {
			t.Errorf("%s: %s = %v, want > 0", sp.name, name, res.PerLayer[name].Value)
		}
	}
}
