package ecc

import "testing"

func TestFieldConstruction(t *testing.T) {
	for _, m := range []int{2, 3, 4, 8, 10, 13, 14} {
		f := NewField(m)
		if f.N != (1<<m)-1 {
			t.Errorf("GF(2^%d): N = %d", m, f.N)
		}
		// exp must enumerate all nonzero elements exactly once.
		seen := make(map[uint32]bool)
		for i := 0; i < f.N; i++ {
			v := f.Alpha(i)
			if v == 0 || v > uint32(f.N) {
				t.Fatalf("GF(2^%d): alpha^%d = %#x out of range", m, i, v)
			}
			if seen[v] {
				t.Fatalf("GF(2^%d): alpha^%d = %#x repeats — polynomial not primitive", m, i, v)
			}
			seen[v] = true
		}
	}
}

func TestFieldPanicsOnUnknownM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewField(40) did not panic")
		}
	}()
	NewField(40)
}

func TestMulCommutativeAssociativeGF16(t *testing.T) {
	f := NewField(4)
	for a := uint32(0); a <= 15; a++ {
		for b := uint32(0); b <= 15; b++ {
			if f.Mul(a, b) != f.Mul(b, a) {
				t.Fatalf("mul not commutative at %d,%d", a, b)
			}
			for c := uint32(0); c <= 15; c++ {
				if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
					t.Fatalf("mul not associative at %d,%d,%d", a, b, c)
				}
			}
		}
	}
}

func TestDistributivityGF16(t *testing.T) {
	f := NewField(4)
	for a := uint32(0); a <= 15; a++ {
		for b := uint32(0); b <= 15; b++ {
			for c := uint32(0); c <= 15; c++ {
				if f.Mul(a, b^c) != f.Mul(a, b)^f.Mul(a, c) {
					t.Fatalf("distributivity fails at %d,%d,%d", a, b, c)
				}
			}
		}
	}
}

func TestInvAndDiv(t *testing.T) {
	f := NewField(13)
	for _, a := range []uint32{1, 2, 3, 0x1000, 0x1FFF, 5000} {
		inv := f.Inv(a)
		if f.Mul(a, inv) != 1 {
			t.Errorf("a * a^-1 != 1 for a=%#x", a)
		}
		if f.Div(a, a) != 1 {
			t.Errorf("a/a != 1 for a=%#x", a)
		}
	}
	if f.Div(0, 5) != 0 {
		t.Error("0/5 != 0")
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	NewField(8).Inv(0)
}

func TestDivZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	NewField(8).Div(3, 0)
}

func TestAlphaWraps(t *testing.T) {
	f := NewField(4)
	if f.Alpha(f.N) != f.Alpha(0) {
		t.Error("alpha^N != alpha^0")
	}
	if f.Alpha(-1) != f.Alpha(f.N-1) {
		t.Error("negative alpha index wrong")
	}
}

func TestLogExpRoundTrip(t *testing.T) {
	f := NewField(10)
	for a := uint32(1); a <= uint32(f.N); a++ {
		if f.Alpha(f.Log(a)) != a {
			t.Fatalf("exp(log(%d)) != %d", a, a)
		}
	}
}

func TestPolyEval(t *testing.T) {
	f := NewField(8)
	// p(x) = 3 + 5x + x^2 evaluated at x=2: 3 ^ Mul(5,2) ^ Mul(2,2).
	coef := []uint32{3, 5, 1}
	want := uint32(3) ^ f.Mul(5, 2) ^ f.Mul(f.Mul(2, 2), 1)
	if got := f.PolyEval(coef, 2); got != want {
		t.Errorf("PolyEval = %#x, want %#x", got, want)
	}
	if f.PolyEval(nil, 7) != 0 {
		t.Error("empty poly should evaluate to 0")
	}
}
