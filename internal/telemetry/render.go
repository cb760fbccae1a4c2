package telemetry

import (
	"fmt"
	"io"
	"sort"

	"salamander/internal/metrics"
)

// RenderSnapshot writes a snapshot as per-layer tables: one counter/gauge
// table and one histogram table per layer, in the paper-shaped aligned
// format the rest of the toolchain uses (metrics.Table).
func RenderSnapshot(w io.Writer, s Snapshot) {
	byLayer := map[string]bool{}
	for _, n := range s.Names() {
		byLayer[Layer(n)] = true
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)

	for _, layer := range layers {
		var cNames, gNames, hNames []string
		for n := range s.Counters {
			if Layer(n) == layer {
				cNames = append(cNames, n)
			}
		}
		for n := range s.Gauges {
			if Layer(n) == layer {
				gNames = append(gNames, n)
			}
		}
		for n := range s.Histograms {
			if Layer(n) == layer {
				hNames = append(hNames, n)
			}
		}
		sort.Strings(cNames)
		sort.Strings(gNames)
		sort.Strings(hNames)

		fmt.Fprintf(w, "-- layer %s --\n", layer)
		if len(cNames)+len(gNames) > 0 {
			t := metrics.NewTable("metric", "value")
			for _, n := range cNames {
				t.Row(n, s.Counters[n])
			}
			for _, n := range gNames {
				t.Row(n, s.Gauges[n])
			}
			t.Render(w)
		}
		if len(hNames) > 0 {
			t := metrics.NewTable("histogram", "count", "mean", "p50", "p95", "p99", "sum")
			for _, n := range hNames {
				h := s.Histograms[n]
				t.Row(n, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.Sum)
			}
			t.Render(w)
		}
		fmt.Fprintln(w)
	}
}

// RenderEventSummary writes a kind-by-layer tally of a trace plus its
// retained span, the offline view cmd/salmon prints.
func RenderEventSummary(w io.Writer, events []Event) {
	if len(events) == 0 {
		fmt.Fprintln(w, "(no events)")
		return
	}
	type key struct {
		kind  EventKind
		layer string
	}
	counts := map[key]int{}
	for _, e := range events {
		l := e.Layer
		if l == "" {
			l = "other"
		}
		counts[key{e.Kind, l}]++
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].layer != keys[j].layer {
			return keys[i].layer < keys[j].layer
		}
		return keys[i].kind < keys[j].kind
	})
	t := metrics.NewTable("layer", "event", "count")
	for _, k := range keys {
		t.Row(k.layer, string(k.kind), counts[k])
	}
	t.Render(w)
	first, last := events[0].T, events[0].T
	for _, e := range events {
		if e.T < first {
			first = e.T
		}
		if e.T > last {
			last = e.T
		}
	}
	fmt.Fprintf(w, "%d events retained, %d kinds, virtual span %v .. %v\n",
		len(events), len(CountByKind(events)), first, last)
}
