package sim

import "testing"

func TestLanesOverlapAcrossLanes(t *testing.T) {
	l := NewLanes(2)
	s0, e0 := l.Reserve(0, 0, 100)
	s1, e1 := l.Reserve(1, 0, 100)
	if s0 != 0 || e0 != 100 || s1 != 0 || e1 != 100 {
		t.Fatalf("independent lanes must overlap: got (%v,%v) (%v,%v)", s0, e0, s1, e1)
	}
}

func TestLanesSerializeWithinLane(t *testing.T) {
	l := NewLanes(2)
	l.Reserve(0, 0, 100)
	s, e := l.Reserve(0, 10, 50)
	if s != 100 || e != 150 {
		t.Fatalf("same-lane op must wait: got start %v end %v, want 100/150", s, e)
	}
	// A ready time past the lane's busy horizon starts immediately.
	s, e = l.Reserve(0, 500, 25)
	if s != 500 || e != 525 {
		t.Fatalf("late op: got start %v end %v, want 500/525", s, e)
	}
}

func TestLanesWrapAndReset(t *testing.T) {
	l := NewLanes(3)
	l.Reserve(4, 0, 10)                       // wraps to lane 1
	if s, _ := l.Reserve(-2, 0, 5); s != 10 { // -2 mod 3 == 1
		t.Fatalf("lane -2 starts at %v, want 10 (behind lane 1's op)", s)
	}
	l.Reset()
	if s, _ := l.Reserve(1, 0, 5); s != 0 {
		t.Fatalf("lane 1 starts at %v after reset, want 0", s)
	}
}
