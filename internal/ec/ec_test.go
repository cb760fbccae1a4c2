package ec

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"salamander/internal/stats"
)

func mustCode(t *testing.T, k, m int) *Code {
	t.Helper()
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randShards(rng *stats.RNG, k, size int) [][]byte {
	out := make([][]byte, k)
	for i := range out {
		s := make([]byte, size)
		for j := range s {
			s[j] = byte(rng.Uint64())
		}
		out[i] = s
	}
	return out
}

func TestNewValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 2}, {2, 0}, {100, 100}, {-1, 3}} {
		if _, err := New(bad[0], bad[1]); err == nil {
			t.Errorf("New(%d,%d) accepted", bad[0], bad[1])
		}
	}
	if _, err := New(4, 2); err != nil {
		t.Errorf("New(4,2): %v", err)
	}
}

func TestEncodeValidation(t *testing.T) {
	c := mustCode(t, 3, 2)
	if _, err := c.EncodeParity(randShards(stats.NewRNG(1), 2, 8)); !errors.Is(err, ErrShardCount) {
		t.Errorf("short shard list: %v", err)
	}
	bad := randShards(stats.NewRNG(1), 3, 8)
	bad[1] = bad[1][:4]
	if _, err := c.EncodeParity(bad); !errors.Is(err, ErrShardSize) {
		t.Errorf("ragged shards: %v", err)
	}
	bad[1] = nil
	if _, err := c.EncodeParity(bad); !errors.Is(err, ErrShardSize) {
		t.Errorf("nil shard: %v", err)
	}
}

func TestRoundTripNoLoss(t *testing.T) {
	c := mustCode(t, 4, 2)
	rng := stats.NewRNG(2)
	data := randShards(rng, 4, 100)
	parity, err := c.EncodeParity(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(parity) != 2 {
		t.Fatalf("parity count = %d", len(parity))
	}
	// Nothing missing: Reconstruct is a no-op that leaves shards intact.
	shards := append(append([][]byte{}, data...), parity...)
	want := make([][]byte, len(shards))
	for i, s := range shards {
		want[i] = append([]byte(nil), s...)
	}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], want[i]) {
			t.Fatalf("shard %d mutated", i)
		}
	}
}

func TestReconstructAllErasurePatterns(t *testing.T) {
	// RS(4+2): every pattern of <= 2 erasures must reconstruct exactly.
	c := mustCode(t, 4, 2)
	rng := stats.NewRNG(3)
	data := randShards(rng, 4, 64)
	parity, err := c.EncodeParity(data)
	if err != nil {
		t.Fatal(err)
	}
	full := append(append([][]byte{}, data...), parity...)
	n := len(full)
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			shards := make([][]byte, n)
			for i := range full {
				shards[i] = append([]byte(nil), full[i]...)
			}
			shards[a] = nil
			shards[b] = nil // a==b erases just one
			if err := c.Reconstruct(shards); err != nil {
				t.Fatalf("erasure (%d,%d): %v", a, b, err)
			}
			for i := range full {
				if !bytes.Equal(shards[i], full[i]) {
					t.Fatalf("erasure (%d,%d): shard %d wrong", a, b, i)
				}
			}
		}
	}
}

func TestReconstructTooFewFails(t *testing.T) {
	c := mustCode(t, 3, 2)
	data := randShards(stats.NewRNG(4), 3, 16)
	parity, _ := c.EncodeParity(data)
	shards := append(append([][]byte{}, data...), parity...)
	shards[0], shards[1], shards[2] = nil, nil, nil // only 2 of 5 left
	if err := c.Reconstruct(shards); !errors.Is(err, ErrTooFewLive) {
		t.Fatalf("3 erasures on RS(3+2): %v", err)
	}
	if err := c.Reconstruct(shards[:3]); !errors.Is(err, ErrShardCount) {
		t.Fatalf("wrong shard count: %v", err)
	}
}

// Property: for random data, shard sizes, and any erasure pattern leaving
// >= k shards, reconstruction is exact.
func TestQuickReconstruct(t *testing.T) {
	codes := []*Code{mustCode(t, 2, 1), mustCode(t, 4, 2), mustCode(t, 6, 3)}
	cfg := &quick.Config{MaxCount: 150}
	prop := func(seed uint64, pick uint8, eraseMask uint16) bool {
		c := codes[int(pick)%len(codes)]
		rng := stats.NewRNG(seed)
		size := 1 + rng.Intn(200)
		data := randShards(rng, c.K, size)
		parity, err := c.EncodeParity(data)
		if err != nil {
			return false
		}
		full := append(append([][]byte{}, data...), parity...)
		shards := make([][]byte, len(full))
		erased := 0
		for i := range full {
			if eraseMask&(1<<uint(i)) != 0 && erased < c.M {
				erased++
				continue
			}
			shards[i] = append([]byte(nil), full[i]...)
		}
		if err := c.Reconstruct(shards); err != nil {
			return false
		}
		for i := range full {
			if !bytes.Equal(shards[i], full[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: encoding is linear — parity of XORed data equals XOR of
// parities.
func TestQuickLinear(t *testing.T) {
	c := mustCode(t, 3, 2)
	cfg := &quick.Config{MaxCount: 200}
	prop := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		a := randShards(rng, 3, 32)
		b := randShards(rng, 3, 32)
		x := make([][]byte, 3)
		for i := range x {
			x[i] = make([]byte, 32)
			for j := range x[i] {
				x[i][j] = a[i][j] ^ b[i][j]
			}
		}
		pa, _ := c.EncodeParity(a)
		pb, _ := c.EncodeParity(b)
		px, _ := c.EncodeParity(x)
		for i := range px {
			for j := range px[i] {
				if px[i][j] != pa[i][j]^pb[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
