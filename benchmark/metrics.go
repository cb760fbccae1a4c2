package main

import (
	"encoding/json"
	"fmt"
)

// metricDef declares one metric. The table below is the single source of the
// names, units, directions and bounds: BENCHMARK.json is generated from it
// (-manifest), every value the harness reports is checked against it, and
// -compare takes its bounds from it.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// exact marks a per-layer count that repeats exactly for a seed: the
	// traced passes run a fixed op stream with one op in flight.
	exact bool
}

// endToEnd are the metrics a user of the served fleet sees, measured with
// tracing off. Every one is reported for every workload and is never 0, as
// the driver's contract requires; failed_frac is therefore not here — the
// result line's attempted/failed carry it, and any failure fails the run.
// A metric has one bound for all workloads, so the noisiest workload sets it:
// README.md gives the measured spreads each bound was set from.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.15},
	{name: "get_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "get_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "put_p50_us", unit: "us", better: "lower", bound: 0.15},
	{name: "put_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.15},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25},
	{name: "write_amp", unit: "B/B", better: "lower", bound: 0.02},
	{name: "stored_bytes_per_user_byte", unit: "B/B", better: "lower", bound: 0.02},
}

// perLayer are the informational numbers of single layers, named after the
// module they measure. They carry no bound. Virtual-time metrics have their
// own unit so they are never summed with wall time.
var perLayer = []metricDef{
	// Stationarity guard and process-wide costs of the untraced window.
	{name: "drift_frac", unit: "frac", better: "lower"},
	{name: "proc.alloc_bytes_per_op", unit: "B", better: "lower"},
	{name: "proc.allocs_per_op", unit: "count", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower"},
	{name: "trace.background_frac", unit: "frac", better: "lower"},

	{name: "salnet.get_us", unit: "us", better: "lower"},
	{name: "salnet.put_us", unit: "us", better: "lower"},
	{name: "salnet.self_get_us", unit: "us", better: "lower"},
	{name: "salnet.self_put_us", unit: "us", better: "lower"},
	{name: "salnet.batched_frac", unit: "frac", better: "higher"},

	{name: "wire.encode_ns", unit: "ns", better: "lower"},
	{name: "wire.decode_ns", unit: "ns", better: "lower"},

	{name: "difs.get_us", unit: "us", better: "lower"},
	{name: "difs.put_us", unit: "us", better: "lower"},
	{name: "difs.self_get_us", unit: "us", better: "lower"},
	{name: "difs.self_put_us", unit: "us", better: "lower"},
	{name: "difs.dev_reads_per_get", unit: "count", better: "lower", exact: true},
	{name: "difs.dev_writes_per_put", unit: "count", better: "lower", exact: true},
	{name: "difs.dev_trims_per_put", unit: "count", better: "lower", exact: true},
	{name: "difs.meta_puts_per_put", unit: "count", better: "lower", exact: true},
	{name: "difs.pending_repairs_end", unit: "count", better: "lower", exact: true},
	{name: "difs.recover_ms", unit: "ms", better: "lower"},
	{name: "difs.recover_objects", unit: "count", better: "higher", exact: true},

	{name: "blockdev.read_us", unit: "us", better: "lower"},
	{name: "blockdev.write_us", unit: "us", better: "lower"},
	{name: "blockdev.trim_us", unit: "us", better: "lower"},
	{name: "blockdev.read_self_us", unit: "us", better: "lower"},
	{name: "blockdev.write_self_us", unit: "us", better: "lower"},
	{name: "blockdev.busy_frac_get", unit: "frac", better: "lower"},
	{name: "blockdev.busy_frac_put", unit: "frac", better: "lower"},
	{name: "blockdev.open_durable_ms", unit: "ms", better: "lower"},

	{name: "core.flash_reads_per_get", unit: "count", better: "lower", exact: true},
	{name: "core.flash_writes_per_put", unit: "count", better: "lower", exact: true},
	{name: "core.gc_relocations_per_kput", unit: "count", better: "lower", exact: true},
	{name: "core.ecc_corrections_per_get", unit: "count", better: "lower", exact: true},
	{name: "core.ecc_corrected_bits_per_correction", unit: "count", better: "lower", exact: true},
	{name: "core.ecc_erasure_decodes_per_get", unit: "count", better: "lower", exact: true},
	{name: "core.read_retries_per_kget", unit: "count", better: "lower", exact: true},
	{name: "core.uncorrectable_per_kget", unit: "count", better: "lower", exact: true},
	{name: "core.decommissions", unit: "count", better: "lower", exact: true},
	{name: "core.regenerations", unit: "count", better: "lower", exact: true},
	{name: "core.mean_pec", unit: "count", better: "lower", exact: true},
	{name: "core.capacity_frac", unit: "frac", better: "higher", exact: true},
	{name: "core.virt_read_us_p50", unit: "virt_us", better: "lower", exact: true},
	{name: "core.virt_write_us_p50", unit: "virt_us", better: "lower", exact: true},

	{name: "ecc.encode_us_per_opage.L0", unit: "us", better: "lower"},
	{name: "ecc.encode_us_per_opage.L1", unit: "us", better: "lower"},
	{name: "ecc.encode_us_per_opage.L2", unit: "us", better: "lower"},
	{name: "ecc.check_us_per_opage.L0", unit: "us", better: "lower"},
	{name: "ecc.check_us_per_opage.L1", unit: "us", better: "lower"},
	{name: "ecc.check_us_per_opage.L2", unit: "us", better: "lower"},
	{name: "ecc.decode_us_per_opage.L0", unit: "us", better: "lower"},
	{name: "ecc.decode_us_per_opage.L1", unit: "us", better: "lower"},
	{name: "ecc.decode_us_per_opage.L2", unit: "us", better: "lower"},
	{name: "ecc.cost_get_us", unit: "us", better: "lower"},
	{name: "ecc.cost_put_us", unit: "us", better: "lower"},

	{name: "flash.read_us_per_page", unit: "us", better: "lower"},
	{name: "flash.program_us_per_page", unit: "us", better: "lower"},
	{name: "flash.injected_bit_flips_per_read", unit: "count", better: "lower", exact: true},
	{name: "flash.erases_per_kput", unit: "count", better: "lower", exact: true},

	{name: "store.put_us", unit: "us", better: "lower"},
	{name: "store.meta_put_us", unit: "us", better: "lower"},
	{name: "store.delete_us", unit: "us", better: "lower"},
	{name: "store.puts_per_put", unit: "count", better: "lower", exact: true},
	{name: "store.deletes_per_put", unit: "count", better: "lower", exact: true},
	{name: "store.put_bytes_per_user_byte", unit: "B/B", better: "lower", exact: true},
	{name: "store.gets_per_get", unit: "count", better: "lower", exact: true},
	{name: "store.busy_frac_put", unit: "frac", better: "lower"},
	{name: "store.files_end", unit: "count", better: "lower", exact: true},
	{name: "store.disk_bytes_end", unit: "B", better: "lower", exact: true},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// metricValue is one measured number as the driver's contract prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run against one half of the table.
type metricSet struct {
	defs   []metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]metricValue{}}
}

// set records a value. An undeclared name is a bug in the harness: every
// number it prints must be in the table and so in BENCHMARK.json.
func (m *metricSet) set(name string, v float64) {
	d, ok := findMetric(m.defs, name)
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not declared in metrics.go", name))
	}
	m.values[name] = metricValue{Value: v, Unit: d.unit}
}

// manifest renders BENCHMARK.json from the tables.
func manifest(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, sp := range workloads {
		doc.Workloads = append(doc.Workloads, wl{sp.name, sp.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	return append(raw, '\n'), err
}
