package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json is generated (go run ./benchmark -manifest); it must not
// drift from the tables the harness reports against.
func TestManifestMatchesCheckedInFile(t *testing.T) {
	want, err := manifest(defaultSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale: regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
}

// The limits the driver's contract puts on the declaration.
func TestTablesMeetTheContract(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the contract's alphabet or length", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract wants 2..8", n)
	}
	for _, sp := range workloads {
		check("workload", sp.name)
		if len(sp.why) > 200 || strings.Contains(sp.why, "\n") || sp.why == "" {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", sp.name, len(sp.why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract wants 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract wants 1..128", n)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check("metric", d.name)
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if d, ok := findMetric(endToEnd, "setup_s"); !ok || d.unit != "s" || d.better != "lower" {
		t.Errorf("the contract wants setup_s in s, lower is better: %+v", d)
	}
	if defaultSeconds < 1 || defaultSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", defaultSeconds)
	}
}

func TestMetricSetRejectsUndeclaredNames(t *testing.T) {
	m := newMetricSet(endToEnd)
	m.set("ops_per_s", 10)
	if v := m.values["ops_per_s"]; v.Value != 10 || v.Unit != "1/s" {
		t.Fatalf("set stored %+v", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an undeclared metric name must not be reportable")
		}
	}()
	m.set("made_up_metric", 1)
}
