package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// Reference values from Python's statistics.quantiles(v, n=4), the driver's
// rule.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5}, 1, 4.5},
		{[]float64{2, 8}, 0.5, 9.5},
		{[]float64{100, 101, 103, 104, 110}, 100.5, 107},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if _, ok := spread([]float64{5}); ok {
		t.Error("a single run has no spread")
	}
}

// set builds a run set of one workload where every end-to-end metric takes
// the given values over consecutive seeds.
func set(workload string, values ...float64) outFile {
	var f outFile
	for i, v := range values {
		r := result{Workload: workload, Seed: uint64(i + 1), Correct: true, EndToEnd: map[string]metricValue{}}
		for _, d := range endToEnd {
			r.EndToEnd[d.name] = metricValue{Value: v, Unit: d.unit}
		}
		f.Runs = append(f.Runs, r)
	}
	return f
}

func compareSets(t *testing.T, a, b outFile) (bool, string) {
	t.Helper()
	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeOut(pa, a); err != nil {
		t.Fatal(err)
	}
	if err := writeOut(pb, b); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	ok, err := compareFiles(&out, pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	return ok, out.String()
}

func TestCompareVerdicts(t *testing.T) {
	steady := set("mem_mix", 100, 100.2, 99.9, 100.1, 100)

	// 1% up everywhere: inside every bound, in both directions.
	ok, out := compareSets(t, steady, set("mem_mix", 101, 101.2, 100.9, 101.1, 101))
	if !ok || strings.Contains(out, "WORSE") || strings.Contains(out, "unresolved") {
		t.Errorf("1%% apart should be ok:\n%s", out)
	}

	// 20% up: worse for every lower-is-better metric whose bound is tighter
	// than that, not for ops_per_s, where up is better.
	ok, out = compareSets(t, steady, set("mem_mix", 120, 120.2, 119.9, 120.1, 120))
	if ok {
		t.Errorf("20%% worse latency should fail:\n%s", out)
	}
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || f[0] != "mem_mix" {
			continue
		}
		rows++
		d, _ := findMetric(endToEnd, f[1])
		want := "ok"
		if d.better == "lower" && d.bound < 0.20 {
			want = "WORSE"
		}
		if f[8] != want {
			t.Errorf("%s (bound %v): verdict %s, want %s", f[1], d.bound, f[8], want)
		}
	}
	if rows != len(endToEnd) {
		t.Errorf("%d rows for %d end-to-end metrics:\n%s", rows, len(endToEnd), out)
	}

	// 30% down: only the higher-is-better metric got worse.
	ok, out = compareSets(t, steady, set("mem_mix", 70, 70.2, 69.9, 70.1, 70))
	if ok || strings.Count(out, "WORSE") != 1 || !strings.Contains(out, "ops_per_s") {
		t.Errorf("30%% lower throughput should fail on ops_per_s alone:\n%s", out)
	}

	// Same medians but one side spread 45%: unresolved, not unchanged, and
	// not a failure.
	ok, out = compareSets(t, steady, set("mem_mix", 70, 85, 100, 115, 130))
	if !ok || !strings.Contains(out, "unresolved (spread > bound)") || !strings.Contains(out, "mem_mix/get_p50_us") {
		t.Errorf("a 45%% spread should be listed as unresolved:\n%s", out)
	}

	// An incorrect run fails the comparison whatever its numbers.
	bad := set("mem_mix", 100, 100, 100)
	bad.Runs[1].Correct = false
	if ok, out = compareSets(t, steady, bad); ok || !strings.Contains(out, "INCORRECT RUN") {
		t.Errorf("an incorrect run should fail the comparison:\n%s", out)
	}
}

func TestCompareExactCounts(t *testing.T) {
	a, b := set("worn_read", 100), set("worn_read", 100)
	a.Runs[0].PerLayer = map[string]metricValue{"difs.dev_reads_per_get": {Value: 4}, "salnet.get_us": {Value: 30}}
	b.Runs[0].PerLayer = map[string]metricValue{"difs.dev_reads_per_get": {Value: 4}, "salnet.get_us": {Value: 35}}
	if _, out := compareSets(t, a, b); !strings.Contains(out, "1 traced run pairs compared, 0 differences") {
		t.Errorf("timings may differ, exact counts did not:\n%s", out)
	}
	b.Runs[0].PerLayer["difs.dev_reads_per_get"] = metricValue{Value: 5}
	if _, out := compareSets(t, a, b); !strings.Contains(out, "exact count differs: worn_read seed 1 difs.dev_reads_per_get: 4 vs 5") {
		t.Errorf("a moved exact count should be listed:\n%s", out)
	}
}
