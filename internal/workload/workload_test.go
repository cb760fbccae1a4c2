package workload

import (
	"testing"

	"salamander/internal/blockdev"
	"salamander/internal/stats"
)

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
	g := &Mix{Gen: &Uniform{Space: 100, Rng: stats.NewRNG(4)}, ReadFrac: 0.3, Rng: stats.NewRNG(3)}
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
