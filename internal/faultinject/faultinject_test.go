package faultinject

import (
	"sync"
	"testing"

	"salamander/internal/sim"
	"salamander/internal/telemetry"
)

func TestNilAndDisarmedSitesNeverFire(t *testing.T) {
	var nilSite *Site
	for i := 0; i < 100; i++ {
		if nilSite.Fire() {
			t.Fatal("nil site fired")
		}
	}
	if nilSite.Fires() != 0 {
		t.Fatal("nil site reported fires")
	}
	r := New(1)
	s := r.Site("flash.read.transient")
	for i := 0; i < 1000; i++ {
		if s.Fire() {
			t.Fatal("disarmed site fired")
		}
	}
}

func TestScheduledHits(t *testing.T) {
	r := New(7)
	if err := r.Arm("ssd.program.fail", Plan{Hits: []uint64{2, 5}}); err != nil {
		t.Fatal(err)
	}
	s := r.Site("ssd.program.fail")
	var fired []int
	for i := 1; i <= 8; i++ {
		if s.Fire() {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 5 {
		t.Fatalf("fired at %v, want [2 5]", fired)
	}
}

func TestProbabilityIsDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []bool {
		r := New(seed)
		// Create an unrelated site first on one run only: decisions must not
		// depend on site creation order.
		if seed%2 == 0 {
			r.Site("other.site")
		}
		if err := r.Arm("flash.read.transient", Plan{Prob: 0.3}); err != nil {
			t.Fatal(err)
		}
		s := r.Site("flash.read.transient")
		out := make([]bool, 200)
		for i := range out {
			out[i] = s.Fire()
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

func TestRearmResetsAndReplays(t *testing.T) {
	r := New(9)
	plan := Plan{Prob: 0.5, MaxFires: 3}
	record := func() []bool {
		if err := r.Arm("difs.read", plan); err != nil {
			t.Fatal(err)
		}
		s := r.Site("difs.read")
		out := make([]bool, 50)
		for i := range out {
			out[i] = s.Fire()
		}
		if s.Fires() > 3 {
			t.Fatalf("MaxFires exceeded: %d", s.Fires())
		}
		return out
	}
	a, b := record(), record()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("re-armed site diverged at hit %d", i)
		}
	}
}

func TestAfterAndMaxFires(t *testing.T) {
	r := New(1)
	if err := r.Arm("x.y", Plan{Prob: 1, After: 3, MaxFires: 2}); err != nil {
		t.Fatal(err)
	}
	s := r.Site("x.y")
	var fired []int
	for i := 1; i <= 10; i++ {
		if s.Fire() {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 4 || fired[1] != 5 {
		t.Fatalf("fired at %v, want [4 5]", fired)
	}
}

func TestVirtualTimeWindow(t *testing.T) {
	r := New(1)
	now := sim.Time(0)
	r.SetClock(func() sim.Time { return now })
	if err := r.Arm("t.w", Plan{Prob: 1, NotBefore: 100, NotAfter: 200}); err != nil {
		t.Fatal(err)
	}
	s := r.Site("t.w")
	if s.Fire() {
		t.Fatal("fired before window")
	}
	now = 150
	if !s.Fire() {
		t.Fatal("did not fire inside window")
	}
	now = 200
	if s.Fire() {
		t.Fatal("fired at/after window end")
	}
}

func TestPlanValidation(t *testing.T) {
	r := New(1)
	if err := r.Arm("a.b", Plan{Prob: -0.1}); err == nil {
		t.Fatal("negative probability accepted")
	}
	if err := r.Arm("a.b", Plan{Prob: 1.5}); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	if err := r.Arm("a.b", Plan{NotBefore: 5, NotAfter: 5}); err == nil {
		t.Fatal("empty time window accepted")
	}
}

func TestTelemetryCountersAndEvents(t *testing.T) {
	r := New(3)
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(64)
	r.Instrument(reg, tr)
	if err := r.Arm("flash.read.transient", Plan{Hits: []uint64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	s := r.Site("flash.read.transient")
	s.Fire()
	s.Fire()
	s.Fire()
	if got := reg.Counter("flash.faults_injected").Value(); got != 2 {
		t.Fatalf("flash.faults_injected = %d, want 2", got)
	}
	r.Recovered("ssd")
	if got := reg.Counter("ssd.faults_recovered").Value(); got != 1 {
		t.Fatalf("ssd.faults_recovered = %d, want 1", got)
	}
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	for _, e := range evs {
		if e.Kind != telemetry.KindFaultInjected || e.Layer != "flash" || e.Detail != "flash.read.transient" {
			t.Fatalf("bad event %+v", e)
		}
	}
}

func TestConcurrentFire(t *testing.T) {
	r := New(5)
	if err := r.Arm("c.c", Plan{Prob: 0.5, MaxFires: 100}); err != nil {
		t.Fatal(err)
	}
	s := r.Site("c.c")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Fire()
			}
		}()
	}
	wg.Wait()
	if s.Fires() > 100 {
		t.Fatalf("MaxFires exceeded under concurrency: %d", s.Fires())
	}
}

// BenchmarkDisarmedFire documents the hot-path cost of an instrumented but
// disarmed site: one atomic load.
func BenchmarkDisarmedFire(b *testing.B) {
	r := New(1)
	s := r.Site("bench.site")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.Fire() {
			b.Fatal("fired")
		}
	}
}
