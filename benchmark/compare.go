package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the driver's spread rule), so a
// spread computed here is the spread the driver computes.
func quartiles(values []float64) (q1, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	cut := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median; it needs at
// least two runs.
func spread(values []float64) (float64, bool) {
	if len(values) < 2 {
		return 0, false
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values), true
}

func readOut(path string) (outFile, error) {
	var f outFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// valuesOf gathers one end-to-end metric's values over a set's runs of one
// workload.
func valuesOf(f outFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if v, ok := r.EndToEnd[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareFiles compares two sets of runs, A the parent and B the change. Per
// (workload, end-to-end metric) it prints both medians, how much worse B's is
// as a share of A's against the metric's bound, and both spreads. A pair whose
// spread exceeds its bound is unresolved: the runs cannot tell a change of
// bound size from noise, so it is reported as such, never as unchanged. Exact
// per-layer counts of traced runs on the same seed are compared for identity.
// ok is false when a run was incorrect or any pair is worse by more than its
// bound.
func compareFiles(w io.Writer, pathA, pathB string) (ok bool, err error) {
	a, err := readOut(pathA)
	if err != nil {
		return false, err
	}
	b, err := readOut(pathB)
	if err != nil {
		return false, err
	}
	ok = true
	for _, f := range []outFile{a, b} {
		for _, r := range f.Runs {
			if !r.Correct {
				fmt.Fprintf(w, "INCORRECT RUN: %s seed %d: %v\n", r.Workload, r.Seed, r.Violations)
				ok = false
			}
		}
	}
	fmt.Fprintf(w, "%-12s %-27s %12s %12s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "worse", "bound", "spreadA", "spreadB", "verdict")
	var unresolved []string
	for _, sp := range workloads {
		for _, d := range endToEnd {
			va, vb := valuesOf(a, sp.name, d.name), valuesOf(b, sp.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			sa, okA := spread(va)
			sb, okB := spread(vb)
			noisy := okA && sa > d.bound || okB && sb > d.bound
			verdict := "ok"
			switch {
			case worse > d.bound:
				verdict = "WORSE"
				ok = false
			case noisy:
				verdict = "unresolved"
			}
			if noisy {
				unresolved = append(unresolved, sp.name+"/"+d.name)
			}
			fmt.Fprintf(w, "%-12s %-27s %12.6g %12.6g %+8.4f %6.2f %8s %8s  %s\n",
				sp.name, d.name, ma, mb, worse, d.bound, fmtSpread(sa, okA), fmtSpread(sb, okB), verdict)
		}
	}
	if len(unresolved) > 0 {
		fmt.Fprintf(w, "unresolved (spread > bound): %v\n", unresolved)
	}
	compareExact(w, a, b)
	return ok, nil
}

func fmtSpread(s float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.4f", s)
}

// compareExact lists the exact-count per-layer metrics that differ between
// traced runs of the same workload and seed. On one commit they must not; a
// change that moves one has changed what the stack does per op.
func compareExact(w io.Writer, a, b outFile) {
	pairs, diffs := 0, 0
	for _, ra := range a.Runs {
		for _, rb := range b.Runs {
			if ra.Workload != rb.Workload || ra.Seed != rb.Seed || ra.PerLayer == nil || rb.PerLayer == nil {
				continue
			}
			pairs++
			for _, d := range perLayer {
				va, vb := ra.PerLayer[d.name], rb.PerLayer[d.name]
				if d.exact && va.Value != vb.Value {
					diffs++
					fmt.Fprintf(w, "exact count differs: %s seed %d %s: %v vs %v\n", ra.Workload, ra.Seed, d.name, va.Value, vb.Value)
				}
			}
		}
	}
	if pairs > 0 {
		fmt.Fprintf(w, "exact per-layer counts: %d traced run pairs compared, %d differences\n", pairs, diffs)
	}
}
