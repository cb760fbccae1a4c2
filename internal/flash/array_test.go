package flash

import (
	"bytes"
	"errors"
	"testing"

	"salamander/internal/rber"
	"salamander/internal/sim"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Geometry = Geometry{
		Channels:      2,
		BlocksPerChan: 4,
		PagesPerBlock: 8,
		PageSize:      rber.FPageSize,
		SpareSize:     rber.SpareSize,
	}
	return cfg
}

func mustArray(t *testing.T, cfg Config) *Array {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func rawPage(g Geometry, fill byte) []byte {
	return bytes.Repeat([]byte{fill}, g.RawPageBytes())
}

func TestGeometryValidate(t *testing.T) {
	good := DefaultGeometry()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Geometry{
		{Channels: 0, BlocksPerChan: 1, PagesPerBlock: 1, PageSize: 16384, SpareSize: 2048},
		{Channels: 1, BlocksPerChan: 1, PagesPerBlock: 1, PageSize: 1000, SpareSize: 2048},
		{Channels: 1, BlocksPerChan: 1, PagesPerBlock: 1, PageSize: 16384, SpareSize: 0},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: bad geometry validated", i)
		}
	}
}

func TestGeometryDerived(t *testing.T) {
	g := DefaultGeometry()
	if g.TotalBlocks() != 4*64 {
		t.Errorf("TotalBlocks = %d", g.TotalBlocks())
	}
	if g.TotalPages() != 4*64*64 {
		t.Errorf("TotalPages = %d", g.TotalPages())
	}
	if g.ChannelOf(0) != 0 || g.ChannelOf(63) != 0 || g.ChannelOf(64) != 1 {
		t.Error("ChannelOf mapping wrong")
	}
}

func TestTiming(t *testing.T) {
	tm := DefaultTiming()
	if tm.ReadTime(16384) <= tm.ReadPage {
		t.Error("read transfer cost missing")
	}
	if tm.ProgramTime(100)-tm.ProgramPage != 100*tm.PerByte {
		t.Error("program transfer cost wrong")
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	a := mustArray(t, smallConfig())
	g := a.Geometry()
	want := rawPage(g, 0xA5)
	d, err := a.Program(PPA{0, 0}, want)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("program duration not positive")
	}
	res, err := a.Read(PPA{0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh flash at RBER0=1e-6 over 147456 bits flips ~0.15 bits per read;
	// tolerate a few flips but the bulk must match.
	diff := 0
	for i := range want {
		if res.Data[i] != want[i] {
			diff++
		}
	}
	if diff > 3 {
		t.Fatalf("fresh page corrupted in %d bytes", diff)
	}
	if res.Duration <= 0 {
		t.Error("read duration not positive")
	}
}

func TestReadDoesNotMutateStored(t *testing.T) {
	cfg := smallConfig()
	// Crank wear so flips are likely, then confirm two reads see
	// independent corruption of the same stored bytes.
	a := mustArray(t, cfg)
	g := a.Geometry()
	ppa := PPA{0, 0}
	if _, err := a.Program(ppa, rawPage(g, 0xFF)); err != nil {
		t.Fatal(err)
	}
	r1, err := a.Read(ppa, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Read(ppa, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &r1.Data[0] == &r2.Data[0] {
		t.Fatal("reads alias the same buffer")
	}
}

func TestProgramProtocolViolations(t *testing.T) {
	a := mustArray(t, smallConfig())
	g := a.Geometry()
	pg := rawPage(g, 1)
	// Forward skips are legal (Salamander skips non-serving pages)...
	if _, err := a.Program(PPA{0, 1}, pg); err != nil {
		t.Fatalf("forward skip rejected: %v", err)
	}
	// ...but going backwards is not.
	if _, err := a.Program(PPA{0, 0}, pg); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("backwards program: %v", err)
	}
	if _, err := a.Program(PPA{0, 2}, pg); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Program(PPA{0, 2}, pg); !errors.Is(err, ErrNotErased) {
		t.Errorf("double program: %v", err)
	}
	if _, err := a.Program(PPA{99, 0}, pg); !errors.Is(err, ErrBadAddress) {
		t.Errorf("bad address: %v", err)
	}
	if _, err := a.Program(PPA{0, 3}, pg[:10]); !errors.Is(err, ErrWrongPageLen) {
		t.Errorf("short buffer: %v", err)
	}
}

func TestReadUnwritten(t *testing.T) {
	a := mustArray(t, smallConfig())
	if _, err := a.Read(PPA{0, 0}, 0); !errors.Is(err, ErrNotWritten) {
		t.Errorf("read of erased page: %v", err)
	}
	if _, err := a.Read(PPA{-1, 0}, 0); !errors.Is(err, ErrBadAddress) {
		t.Errorf("read of bad address: %v", err)
	}
}

func TestEraseResetsBlock(t *testing.T) {
	a := mustArray(t, smallConfig())
	g := a.Geometry()
	for p := 0; p < g.PagesPerBlock; p++ {
		if _, err := a.Program(PPA{0, p}, rawPage(g, byte(p))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Erase(0); err != nil {
		t.Fatal(err)
	}
	if a.BlockPEC(0) != 1 {
		t.Errorf("PEC after erase = %d", a.BlockPEC(0))
	}
	if a.blocks[0].pages[0].state == pageWritten {
		t.Error("page still written after erase")
	}
	// Programming restarts from page 0.
	if _, err := a.Program(PPA{0, 0}, rawPage(g, 9)); err != nil {
		t.Fatal(err)
	}
}

// TestArenaPagesStayApart pins the page-payload arena: every page keeps
// its own bytes, Program copies its input, and erasing (which hands a
// block's arena memory back) touches neither the other blocks nor the
// block's next contents.
func TestArenaPagesStayApart(t *testing.T) {
	cfg := smallConfig()
	cfg.PristineReads = true
	a := mustArray(t, cfg)
	g := a.Geometry()
	fill := func(b, p, gen int) byte { return byte(b*g.PagesPerBlock + p + 64*gen + 1) }
	for b := 0; b < 2; b++ {
		for p := 0; p < g.PagesPerBlock; p++ {
			buf := rawPage(g, fill(b, p, 0))
			if _, err := a.Program(PPA{b, p}, buf); err != nil {
				t.Fatal(err)
			}
			buf[0] ^= 0xff // the array holds a copy
		}
	}
	if _, err := a.Erase(0); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if _, err := a.Program(PPA{0, p}, rawPage(g, fill(0, p, 1))); err != nil {
			t.Fatal(err)
		}
	}
	check := func(ppa PPA, want byte) {
		t.Helper()
		res, err := a.Read(ppa, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Data, rawPage(g, want)) {
			t.Fatalf("%v does not hold its own bytes", ppa)
		}
	}
	for p := 0; p < 3; p++ {
		check(PPA{0, p}, fill(0, p, 1))
	}
	for p := 0; p < g.PagesPerBlock; p++ {
		check(PPA{1, p}, fill(1, p, 0))
	}
}

func TestEraseBadAddress(t *testing.T) {
	a := mustArray(t, smallConfig())
	if _, err := a.Erase(-1); !errors.Is(err, ErrBadAddress) {
		t.Errorf("erase(-1): %v", err)
	}
}

func TestWearRaisesRBERAndTiredness(t *testing.T) {
	cfg := smallConfig()
	cfg.StoreData = false
	cfg.EnduranceCV = 0 // exact thresholds
	cfg.PageCV = 0
	a := mustArray(t, cfg)
	model := a.Model()

	// Cycle block 0 to just past the L0 limit.
	target := int(model.Level(0).PECLimit) + 10
	for i := 0; i < target; i++ {
		if _, err := a.Erase(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Program(PPA{0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	fresh := a.EffectiveRBER(PPA{1, 0})
	worn := a.EffectiveRBER(PPA{0, 0})
	if worn <= model.RBER0 {
		t.Errorf("worn RBER %v not above fresh", worn)
	}
	_ = fresh
	if lvl := a.PageTiredness(PPA{0, 0}); lvl != 1 {
		t.Errorf("tiredness after %d cycles = %d, want 1", target, lvl)
	}
	if lvl := a.PageTiredness(PPA{1, 0}); lvl != 0 {
		t.Errorf("fresh block tiredness = %d", lvl)
	}
}

func TestFlipsScaleWithWear(t *testing.T) {
	cfg := smallConfig()
	cfg.EnduranceCV = 0
	cfg.PageCV = 0
	a := mustArray(t, cfg)
	g := a.Geometry()
	model := a.Model()

	// Wear block 0 to the L0 ECC ceiling, where RBER is the L0 max
	// (~1e-3): expect roughly bits*rber flips per read.
	limit := int(model.Level(0).PECLimit)
	for i := 0; i < limit; i++ {
		if _, err := a.Erase(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Program(PPA{0, 0}, rawPage(g, 0x55)); err != nil {
		t.Fatal(err)
	}
	totalFlips := 0
	const reads = 20
	for i := 0; i < reads; i++ {
		res, err := a.Read(PPA{0, 0}, 0)
		if err != nil {
			t.Fatal(err)
		}
		totalFlips += res.Flips
	}
	bits := float64(g.RawPageBytes() * 8)
	wantPerRead := bits * model.Level(0).MaxRBER
	got := float64(totalFlips) / reads
	if got < wantPerRead/2 || got > wantPerRead*2 {
		t.Errorf("flips/read = %v, want ~%v", got, wantPerRead)
	}
}

func TestEraseEventuallyKillsBlock(t *testing.T) {
	cfg := smallConfig()
	cfg.EnduranceCV = 0
	cfg.PageCV = 0
	cfg.EraseFailPEC = 1.001 // die just past nominal, to keep the test fast
	cfg.StoreData = false
	a := mustArray(t, cfg)
	var died bool
	for i := 0; i < int(a.Model().NominalPEC)+10; i++ {
		if _, err := a.Erase(0); err != nil {
			if !errors.Is(err, ErrEraseFailed) {
				t.Fatalf("unexpected erase error: %v", err)
			}
			died = true
			break
		}
	}
	if !died {
		t.Fatal("block never died")
	}
	if !a.BlockDead(0) {
		t.Error("BlockDead not set")
	}
	if _, err := a.Erase(0); !errors.Is(err, ErrEraseFailed) {
		t.Error("erase of dead block should keep failing")
	}
	if _, err := a.Program(PPA{0, 0}, nil); !errors.Is(err, ErrEraseFailed) {
		t.Error("program on dead block should fail")
	}
}

func TestEnduranceVarianceApplied(t *testing.T) {
	cfg := smallConfig()
	cfg.EnduranceCV = 0.3
	a := mustArray(t, cfg)
	lo, hi := 10.0, 0.0
	g := a.Geometry()
	for b := 0; b < g.TotalBlocks(); b++ {
		for p := 0; p < g.PagesPerBlock; p++ {
			s := float64(a.blocks[b].pageScale[p])
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
	}
	if hi/lo < 1.2 {
		t.Errorf("endurance scales too uniform: [%v, %v]", lo, hi)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	run := func() Stats {
		cfg := smallConfig()
		cfg.Seed = 99
		a := mustArray(t, cfg)
		g := a.Geometry()
		for i := 0; i < 50; i++ {
			b := i % g.TotalBlocks()
			p := (i / g.TotalBlocks()) % g.PagesPerBlock
			if a.blocks[b].pages[p].state != pageWritten && p == 0 {
				if _, err := a.Program(PPA{b, p}, rawPage(g, byte(i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		for b := 0; b < g.TotalBlocks(); b++ {
			if a.blocks[b].pages[0].state == pageWritten {
				if _, err := a.Read(PPA{b, 0}, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		return a.Stats()
	}
	s1, s2 := run(), run()
	if s1 != s2 {
		t.Fatalf("same-seed runs diverged: %+v vs %+v", s1, s2)
	}
}

func TestStats(t *testing.T) {
	a := mustArray(t, smallConfig())
	g := a.Geometry()
	if _, err := a.Program(PPA{0, 0}, rawPage(g, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Read(PPA{0, 0}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Erase(1); err != nil {
		t.Fatal(err)
	}
	s := a.Stats()
	if s.ProgramOps != 1 || s.ReadOps != 1 || s.EraseOps != 1 {
		t.Errorf("counters: %+v", s)
	}
	if s.MaxPEC != 1 {
		t.Errorf("MaxPEC = %d", s.MaxPEC)
	}
	if s.MeanPEC <= 0 {
		t.Errorf("MeanPEC = %v", s.MeanPEC)
	}
}

func TestTransferBytesBoundsLatency(t *testing.T) {
	a := mustArray(t, smallConfig())
	g := a.Geometry()
	if _, err := a.Program(PPA{0, 0}, rawPage(g, 7)); err != nil {
		t.Fatal(err)
	}
	full, err := a.Read(PPA{0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := a.Read(PPA{0, 0}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Duration >= full.Duration {
		t.Errorf("partial transfer (%v) not cheaper than full (%v)", partial.Duration, full.Duration)
	}
	if partial.Duration != DefaultTiming().ReadTime(4096) {
		t.Errorf("partial duration = %v, want %v", partial.Duration, DefaultTiming().ReadTime(4096))
	}
	var _ sim.Time = full.Duration
}

func TestMetadataOnlyMode(t *testing.T) {
	cfg := smallConfig()
	cfg.StoreData = false
	a := mustArray(t, cfg)
	if _, err := a.Program(PPA{0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := a.Read(PPA{0, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data != nil {
		t.Error("metadata-only read returned data")
	}
	if res.RBER <= 0 {
		t.Error("RBER not reported")
	}
}

func TestBusParallelism(t *testing.T) {
	b := NewBus(4)
	// Two ops on different channels overlap fully.
	_, end0 := b.Reserve(0, 0, 100)
	_, end1 := b.Reserve(1, 0, 100)
	if end0 != 100 || end1 != 100 {
		t.Fatalf("parallel ends = %v, %v", end0, end1)
	}
	// A third on channel 0 queues behind the first.
	start, end := b.Reserve(0, 0, 100)
	if start != 100 || end != 200 {
		t.Fatalf("queued op = [%v, %v]", start, end)
	}
	// Issue time after channel free: starts immediately.
	start, end = b.Reserve(1, 500, 100)
	if start != 500 || end != 600 {
		t.Fatalf("late op = [%v, %v]", start, end)
	}
	b.Reset()
	if start, _ := b.Reserve(0, 0, 10); start != 0 {
		t.Fatalf("reset did not clear occupancy: start=%v", start)
	}
	// Channel index wraps.
	if start, _ := b.Reserve(7, 0, 10); start != 0 {
		t.Fatalf("wrapped channel start = %v", start)
	}
	// Degenerate bus clamps to one channel.
	one := NewBus(0)
	one.Reserve(0, 0, 10)
	if start, _ := one.Reserve(1, 0, 10); start != 10 {
		t.Fatalf("zero-channel bus not clamped to one channel: second op starts at %v", start)
	}
}
