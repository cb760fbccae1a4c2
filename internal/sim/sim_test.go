package sim

import (
	"testing"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("new engine clock = %v", e.Now())
	}
}

func TestAdvance(t *testing.T) {
	e := NewEngine()
	e.Advance(500)
	e.Advance(0)
	e.Advance(250)
	if e.Now() != 750 {
		t.Fatalf("clock after Advance = %v, want 750", e.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Advance did not panic")
		}
	}()
	e.Advance(-1)
}

func TestTimeHelpers(t *testing.T) {
	if Second.Seconds() != 1 {
		t.Errorf("Second.Seconds() = %v", Second.Seconds())
	}
	if (2 * Millisecond).Duration().Milliseconds() != 2 {
		t.Errorf("Duration conversion wrong")
	}
	if s := (1500 * Millisecond).String(); s != "1.5s" {
		t.Errorf("String = %q", s)
	}
}
