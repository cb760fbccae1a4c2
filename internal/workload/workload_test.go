package workload

import (
	"bytes"
	"runtime"
	"testing"

	"salamander/internal/blockdev"
	"salamander/internal/stats"
	"salamander/internal/telemetry"
)

func TestSequentialCycles(t *testing.T) {
	g := &Sequential{Space: 3}
	want := []int{0, 1, 2, 0, 1}
	for i, w := range want {
		if op := g.Next(); op.LBA != w || op.Read {
			t.Fatalf("op %d = %+v, want LBA %d write", i, op, w)
		}
	}
}

func TestUniformInRange(t *testing.T) {
	g := &Uniform{Space: 10, Rng: stats.NewRNG(1)}
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		op := g.Next()
		if op.LBA < 0 || op.LBA >= 10 {
			t.Fatalf("LBA %d out of range", op.LBA)
		}
		seen[op.LBA] = true
	}
	if len(seen) != 10 {
		t.Errorf("only %d distinct LBAs", len(seen))
	}
}

func TestZipfianSkew(t *testing.T) {
	g := NewZipfian(stats.NewRNG(2), 100, 0.99)
	counts := make([]int, 100)
	for i := 0; i < 20000; i++ {
		counts[g.Next().LBA]++
	}
	if counts[0] <= counts[50] {
		t.Error("zipfian head not hotter than tail")
	}
}

func TestHotSpotConcentration(t *testing.T) {
	g := &HotSpot{Space: 100, HotSpace: 10, HotFrac: 0.9, Rng: stats.NewRNG(5)}
	const n = 20000
	hot := 0
	for i := 0; i < n; i++ {
		op := g.Next()
		if op.LBA < 0 || op.LBA >= 100 {
			t.Fatalf("LBA %d out of space", op.LBA)
		}
		if op.LBA < 10 {
			hot++
		}
	}
	// 90% aimed at the head plus ~10% of the uniform remainder landing there.
	frac := float64(hot) / n
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("hot-head fraction %v, want ~0.91", frac)
	}
}

func TestMixReadFraction(t *testing.T) {
	g := &Mix{Gen: &Sequential{Space: 100}, ReadFrac: 0.3, Rng: stats.NewRNG(3)}
	reads := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if g.Next().Read {
			reads++
		}
	}
	frac := float64(reads) / n
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("read fraction %v, want ~0.3", frac)
	}
}

func TestAgerSweeps(t *testing.T) {
	dev := blockdev.NewMemDevice(3, 32)
	a := NewAger(dev)
	if !a.Round() {
		t.Fatal("first round reported dead device")
	}
	if a.Written != 96 {
		t.Fatalf("written = %d, want 96", a.Written)
	}
	dev.Brick()
	if a.Round() {
		t.Fatal("round on bricked device reported alive")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	gen := &Mix{Gen: &Uniform{Space: 1000, Rng: stats.NewRNG(7)}, ReadFrac: 0.4, Rng: stats.NewRNG(8)}
	tr := Record(gen, 500)
	if len(tr.Ops) != 500 {
		t.Fatalf("recorded %d ops", len(tr.Ops))
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != len(tr.Ops) {
		t.Fatalf("read %d ops", len(got.Ops))
	}
	for i := range tr.Ops {
		if tr.Ops[i] != got.Ops[i] {
			t.Fatalf("op %d mismatch: %+v vs %+v", i, tr.Ops[i], got.Ops[i])
		}
	}
}

func TestTraceJSONLRoundTrip(t *testing.T) {
	gen := &Mix{Gen: &Uniform{Space: 1000, Rng: stats.NewRNG(7)}, ReadFrac: 0.4, Rng: stats.NewRNG(8)}
	tr := Record(gen, 500)
	var buf bytes.Buffer
	if err := tr.WriteJSONLTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf) // auto-detects JSONL
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != len(tr.Ops) {
		t.Fatalf("read %d ops, want %d", len(got.Ops), len(tr.Ops))
	}
	for i := range tr.Ops {
		if tr.Ops[i] != got.Ops[i] {
			t.Fatalf("op %d mismatch: %+v vs %+v", i, tr.Ops[i], got.Ops[i])
		}
	}
}

func TestReadTraceJSONLSkipsNonHostEvents(t *testing.T) {
	// A device's -trace export interleaves other kinds; replay keeps only
	// the host ops.
	evs := []telemetry.Event{
		{Kind: telemetry.KindPageProgram, Layer: "flash", Block: 3},
		{Kind: telemetry.KindHostWrite, Layer: "host", Minidisk: 1, LBA: 42},
		{Kind: telemetry.KindGcVictim, Layer: "ftl", Block: 7},
		{Kind: telemetry.KindHostRead, Layer: "host", LBA: 9},
	}
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{
		{Read: false, MD: 1, LBA: 42},
		{Read: true, MD: 0, LBA: 9},
	}
	if len(got.Ops) != len(want) {
		t.Fatalf("got %d ops, want %d", len(got.Ops), len(want))
	}
	for i := range want {
		if got.Ops[i] != want[i] {
			t.Fatalf("op %d = %+v, want %+v", i, got.Ops[i], want[i])
		}
	}

	// A telemetry trace with no host ops at all is not a workload.
	buf.Reset()
	if err := telemetry.WriteJSONL(&buf, evs[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTrace(&buf); err == nil {
		t.Error("JSONL trace without host events accepted")
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Valid magic but truncated body.
	var buf bytes.Buffer
	tr := Record(&Sequential{Space: 10}, 5)
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace accepted")
	}
}

// A binary header claiming ~2^30 ops with no records behind it is rejected
// without reserving memory for the claimed count (tens of GiB of Ops). A
// single corrupted count byte produces such a header, so
// TestQuickTraceCorruptionSafe reaches this case at random.
func TestReadTraceCorruptCountAllocatesLittle(t *testing.T) {
	raw := []byte{'S', 'T', 'R', '1', 0, 0, 0, 0x3f, 0, 0, 0, 0}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadTrace(bytes.NewReader(raw)); err == nil {
		t.Fatal("header with no records accepted")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Errorf("rejecting a corrupt count allocated %d bytes", got)
	}
}

// TestDriveAgainstSalamander exercises the generator/driver stack against a
// real Salamander device end to end (mixed zipfian read/write traffic over
// multiple minidisks).
