package perfmodel

import (
	"math"
	"testing"
)

func TestDegradationFactor(t *testing.T) {
	want := []float64{1, 4.0 / 3, 2, 4}
	for l, w := range want {
		if got := DegradationFactor(l); math.Abs(got-w) > 1e-12 {
			t.Errorf("factor(L%d) = %v, want %v", l, got, w)
		}
	}
}

func TestDegradationFactorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("factor(4) did not panic")
		}
	}()
	DegradationFactor(4)
}

func TestAnalyticEndpoints(t *testing.T) {
	// f=0: no degradation; f=1 at L1: throughput 3/4, latency 4/3.
	if got := AnalyticSeqThroughput(0, 1); got != 1 {
		t.Errorf("seq(0) = %v", got)
	}
	if got := AnalyticSeqThroughput(1, 1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("seq(1) = %v, want 0.75 (the paper's 25%% reduction)", got)
	}
	if got := AnalyticLargeAccessLatency(1, 1); math.Abs(got-4.0/3) > 1e-12 {
		t.Errorf("lat16(1) = %v, want 4/3", got)
	}
	if got := AnalyticSmallAccessLatency(1, 1); got != 1 {
		t.Errorf("lat4(1) = %v, want 1", got)
	}
}

func TestAnalyticMonotone(t *testing.T) {
	prevT, prevL := 2.0, 0.0
	for f := 0.0; f <= 1.0; f += 0.1 {
		tp := AnalyticSeqThroughput(f, 1)
		lat := AnalyticLargeAccessLatency(f, 1)
		if tp > prevT {
			t.Fatalf("throughput not decreasing at f=%v", f)
		}
		if lat < prevL {
			t.Fatalf("latency not increasing at f=%v", f)
		}
		prevT, prevL = tp, lat
	}
}

func measureSweep(t *testing.T, fs []float64) []*Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DataMB = 8
	cfg.RandomReads = 500
	out, err := Sweep(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMeasuredSeqMatchesAnalytic(t *testing.T) {
	fs := []float64{0, 0.25, 0.5, 0.75, 1}
	results := measureSweep(t, fs)
	for i, r := range results {
		want := AnalyticSeqThroughput(fs[i], 1)
		if math.Abs(r.SeqThroughputRel-want) > 0.05 {
			t.Errorf("f=%v: measured seq throughput %.3f vs analytic %.3f",
				fs[i], r.SeqThroughputRel, want)
		}
	}
}

func TestMeasured4KFlat(t *testing.T) {
	results := measureSweep(t, []float64{0, 0.5, 1})
	for _, r := range results {
		if math.Abs(r.Rand4KLatencyRel-1) > 0.05 {
			t.Errorf("f=%v: 4K latency %.3f, want ~1 (§4.2)", r.Fraction, r.Rand4KLatencyRel)
		}
	}
}

func TestMeasured16KLatencyGrows(t *testing.T) {
	results := measureSweep(t, []float64{0, 0.5, 1})
	prev := 0.0
	for _, r := range results {
		if r.Rand16KLatencyRel < prev-0.02 {
			t.Fatalf("16K latency not non-decreasing at f=%v", r.Fraction)
		}
		prev = r.Rand16KLatencyRel
	}
	// At f=1 every 16KB access spans two 3-oPage pages on a serial device:
	// the measured penalty is ~2x, steeper than the amortized 4/3 model
	// (documented in EXPERIMENTS.md).
	last := results[len(results)-1]
	if last.Rand16KLatencyRel < 4.0/3-0.05 {
		t.Errorf("f=1: 16K latency %.3f below even the amortized model", last.Rand16KLatencyRel)
	}
	if last.Rand16KLatencyRel > 2.2 {
		t.Errorf("f=1: 16K latency %.3f above the serial two-read bound", last.Rand16KLatencyRel)
	}
}

func TestMeasureValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := Measure(cfg, -0.1); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := Measure(cfg, 1.1); err == nil {
		t.Error("fraction > 1 accepted")
	}
	cfg.Level = 0
	if _, err := Measure(cfg, 0.5); err == nil {
		t.Error("level 0 accepted (nothing to mix)")
	}
	cfg.Level = 9
	if _, err := Measure(cfg, 0.5); err == nil {
		t.Error("level 9 accepted")
	}
}

func TestSweepEmpty(t *testing.T) {
	out, err := Sweep(DefaultConfig(), nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty sweep: %v, %d results", err, len(out))
	}
}

// TestChannelParallelismFlattens16K: with a multi-channel bus, the two page
// reads of a spanning 16KB access overlap, flattening the measured latency
// curve toward 1x — the §4.2 mitigation.
func TestChannelParallelismFlattens16K(t *testing.T) {
	serial := DefaultConfig()
	serial.DataMB = 8
	serial.RandomReads = 400
	parallel := serial
	parallel.Channels = 4

	s, err := Sweep(serial, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Sweep(parallel, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("16K latency at f=1: serial %.3f, 4-channel %.3f",
		s[1].Rand16KLatencyRel, p[1].Rand16KLatencyRel)
	if s[1].Rand16KLatencyRel < 1.8 {
		t.Errorf("serial penalty %.3f, want ~2x", s[1].Rand16KLatencyRel)
	}
	if p[1].Rand16KLatencyRel > 1.15 {
		t.Errorf("parallel penalty %.3f, want ~1x (reads overlap)", p[1].Rand16KLatencyRel)
	}
	// Sequential throughput is bandwidth-bound and unchanged by the bus
	// model (same total work).
	if diff := s[1].SeqThroughputRel - p[1].SeqThroughputRel; diff > 0.01 || diff < -0.01 {
		t.Errorf("seq throughput differs with channels: %.3f vs %.3f",
			s[1].SeqThroughputRel, p[1].SeqThroughputRel)
	}
}
